// Golden fixture: concurrency outside util::ThreadPool.
// Analyzed as if at src/core/raw_concurrency_bad.cpp.
#include <thread>

void solve_rows(std::size_t m) {
  std::thread helper([] {});  // line 6: raw thread
  std::this_thread::yield();  // not a thread spawn: clean
  // Line 9: OpenMP bypasses the pool's static chunking.
#pragma omp parallel for
  for (std::size_t j = 0; j < m; ++j) {
  }
  helper.join();
}

struct SharedTotals {
  std::mutex lock;              // line 16: solver-owned lock
  std::atomic<double> total{};  // line 17: solver-owned atomic
};
