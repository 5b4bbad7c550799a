#!/bin/sh
# ASan+UBSan smoke check for the solver core.
#
# Configures a separate build tree (build-asan/) with -DNASHLB_SANITIZE=ON
# and runs the core test binary under AddressSanitizer and
# UndefinedBehaviorSanitizer. The incremental solver core
# (core/load_state, the *_into waterfill/best-reply fast paths) hands
# spans over caller-owned buffers across module boundaries, which is
# exactly the kind of code sanitizers exist for — run this after touching
# any of those paths. The DES tests run too: des::EventFn keeps closures
# in hand-written raw storage (placement new, relocation, boxed
# fallback), and the leak checker sees a closure that is never destroyed.
# test_concurrency runs too: the thread pool and every pooled code path
# (Jacobi rounds, replications) hand per-worker buffers across the fork
# and the join. test_allocations runs too: it replaces the global
# allocation functions with a counting passthrough, and its counts of
# the solver's hot paths include the checked build's consistency audit.
#
# The tree is configured with -DNASHLB_CHECK=ON so the paper-invariant
# contract layer (docs/STATIC_ANALYSIS.md) is active under the
# sanitizers: a contract abort()s, which lets ASan flush its report and
# point at the violating frame — the two layers are designed to stack.
# This also keeps the contract-enabled configuration itself under
# sanitizer coverage (the checked build audits extra state, e.g. the
# stride-64 LoadState consistency rebuild).
#
# Usage: tools/check_sanitize.sh [repo-root]   (default: script's parent dir)
set -eu

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
build="$root/build-asan"

cmake -B "$build" -S "$root" \
  -DNASHLB_SANITIZE=ON \
  -DNASHLB_CHECK=ON \
  -DNASHLB_BUILD_BENCH=OFF \
  -DNASHLB_BUILD_EXAMPLES=OFF
cmake --build "$build" --target test_core --target test_util \
  --target test_des --target test_concurrency --target test_allocations \
  -j "$(nproc 2>/dev/null || echo 4)"

# halt_on_error is already the default via -fno-sanitize-recover=all;
# detect_leaks exercises the allocation-free claim of the fast paths.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  "$build/tests/test_core"

# test_util carries the contract death tests: each one forks, trips a
# seeded violation and expects the child to abort — under ASan this
# verifies the whole failure path (report formatting included) is clean.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  "$build/tests/test_util"

ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  "$build/tests/test_des"

ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  "$build/tests/test_concurrency"

ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
  "$build/tests/test_allocations"

echo "check_sanitize: OK (test_core + test_util + test_des +" \
     "test_concurrency + test_allocations clean under ASan+UBSan" \
     "with NASHLB_CHECK=ON)"
