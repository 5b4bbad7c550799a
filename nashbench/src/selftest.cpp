// Self-tests of the benchmark's own arithmetic: tail-percentile selection
// and span self-time subtraction. Failure counting and the seed contract
// are tested in main.cpp, where the measurement loop lives.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.hpp"

namespace nashlb::nashbench {
namespace {

int expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "selftest: %s\n", what);
  return ok ? 0 : 1;
}

/// Samples n-1..0 in descending order: after sorting, each value is its
/// own rank, so the number of samples beyond the tail is n − 1 − value.
int test_tail() {
  int failures = 0;
  for (std::size_t n = 11; n <= 3000; n += (n < 200 ? 1 : 37)) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - 1 - i);
    const Tail t = tail_percentile(xs);
    const auto beyond = n - 1 - static_cast<std::size_t>(t.value);
    const auto next = static_cast<std::size_t>(t.percentile) + 1;
    const std::size_t next_rank = (next * n + 99) / 100;
    failures += expect(beyond >= 10, "tail leaves fewer than 10 samples");
    failures += expect(next > 100 || n - next_rank < 10,
                       "a higher percentile also leaves 10 samples");
  }
  std::vector<double> hundred(100);
  for (std::size_t i = 0; i < 100; ++i) hundred[i] = static_cast<double>(i);
  const Tail t = tail_percentile(hundred);
  failures += expect(t.percentile == 90 && t.value == 89.0,
                     "tail of 100 samples is not p90");
  return failures;
}

/// op [0,1000] ns holds A [100,600] (which holds B [200,300]) and
/// C [700,800]. With 10 ns inside each span and 30 ns per span:
/// self(op) = 1000 − 500 − 100 − 10 − 2·20 = 350, self(A) = 500 − 100 −
/// 10 − 20 = 370, self(B) = self(C) = 90.
int test_fold() {
  const std::vector<Span> spans = {
      {0, 1000, kNoParent, Layer::Op},
      {100, 600, 0, Layer::CoreWaterfill},
      {200, 300, 1, Layer::CoreCommitRow},
      {700, 800, 0, Layer::CoreCommitRow},
  };
  LayerTotals totals;
  fold_spans(spans, 10e-9, 30e-9, totals);
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-15; };
  int failures = 0;
  failures += expect(near(totals.self_s[0], 350e-9), "op self time");
  failures += expect(near(totals.self_s[1], 370e-9), "nested self time");
  failures += expect(near(totals.self_s[3], 180e-9), "leaf self times");
  failures += expect(totals.calls[3] == 2.0 && totals.calls[1] == 1.0,
                     "span counts");
  return failures;
}

}  // namespace

int selftest_arithmetic() { return test_tail() + test_fold(); }

}  // namespace nashlb::nashbench
