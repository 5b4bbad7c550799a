#!/bin/sh
# ThreadSanitizer check for the parallel execution layer.
#
# Configures a separate build tree (build-tsan/) with
# -DNASHLB_SANITIZE=thread, builds the test_concurrency binary and the
# libraries it links, and runs it under TSan. The binary holds the
# util::ThreadPool tests (chunk scheduling, reuse, exception propagation
# across workers) and one test per pooled code path: the Jacobi round
# per user and in class mode, the diverging round the convergence probe
# records, and the replications (tests/concurrency/).
#
# The determinism story ("bitwise identical at any thread count") rests
# on the claim that workers touch disjoint state between the fork and
# the join — precisely the claim TSan can falsify. Each of those tests
# also compares the pooled result with the serial one bit for bit.
#
# Exits 77 (ctest SKIP convention) when the toolchain cannot build and
# run a TSan binary at all — same convention as check_tidy/check_format.
#
# Usage: tools/check_tsan.sh [repo-root]   (default: script's parent dir)
set -eu

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
build="$root/build-tsan"

# Probe: can this toolchain compile, link and *run* -fsanitize=thread?
# (Some kernels/containers break TSan at startup even when it links.)
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cpp" << 'EOF'
#include <thread>
int main() {
  int x = 0;
  std::thread t([&] { x = 1; });
  t.join();
  return x - 1;
}
EOF
cxx=${CXX:-c++}
if ! "$cxx" -fsanitize=thread -std=c++20 "$probe_dir/probe.cpp" \
     -o "$probe_dir/probe" 2> /dev/null || ! "$probe_dir/probe"; then
    echo "check_tsan: SKIP: toolchain cannot build+run -fsanitize=thread"
    exit 77
fi

cmake -B "$build" -S "$root" \
  -DNASHLB_SANITIZE=thread \
  -DNASHLB_BUILD_BENCH=OFF \
  -DNASHLB_BUILD_EXAMPLES=OFF
cmake --build "$build" --target test_concurrency \
  -j "$(nproc 2> /dev/null || echo 4)"

# second_deadlock_stack costs nothing and makes lock-order reports
# readable; halt_on_error is already the default via
# -fno-sanitize-recover=all.
TSAN_OPTIONS=second_deadlock_stack=1 "$build/tests/test_concurrency"

echo "check_tsan: OK (test_concurrency clean under ThreadSanitizer)"
