// The deterministic thread pool (src/util/parallel.hpp) carries the
// parallel layer's whole correctness story: the solver and the
// simulation only stay bitwise thread-count-independent if
// parallel_for's (chunk -> worker) mapping is a pure function of the
// range and the serial path really is a plain loop. These tests pin
// that contract directly.

#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nashlb::util {
namespace {

TEST(ResolveThreads, ExplicitRequestWinsVerbatim) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(64), 64u);
}

TEST(ResolveThreads, EnvOverridesAutoDetection) {
  ASSERT_EQ(setenv("NASHLB_THREADS", "5", 1), 0);
  EXPECT_EQ(resolve_threads(0), 5u);
  // Explicit requests ignore the env var.
  EXPECT_EQ(resolve_threads(2), 2u);
  // Garbage values fall through to hardware detection (>= 1).
  ASSERT_EQ(setenv("NASHLB_THREADS", "zero", 1), 0);
  EXPECT_GE(resolve_threads(0), 1u);
  ASSERT_EQ(setenv("NASHLB_THREADS", "0", 1), 0);
  EXPECT_GE(resolve_threads(0), 1u);
  ASSERT_EQ(unsetenv("NASHLB_THREADS"), 0);
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(0, hits.size(), 1, [&](std::size_t i, std::size_t) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, EmptyAndSubGrainRangesRunInline) {
  ThreadPool pool(4);
  std::size_t calls = 0;
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(3, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // count <= grain: the caller runs the loop itself as worker 0.
  pool.parallel_for(0, 8, 8, [&](std::size_t i, std::size_t w) {
    EXPECT_EQ(i, calls);
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 8u);
}

TEST(ThreadPool, SingleWorkerPoolIsThePlainLoop) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(10, 20, 1, [&](std::size_t i, std::size_t w) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{10});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, IndexToWorkerMappingIsAPureFunctionOfTheRange) {
  // Static chunk assignment: re-running the same range on the same-sized
  // pool must hand every index to the same worker slot, run after run
  // and pool after pool. (This is what makes per-worker scratch state
  // deterministic.)
  constexpr std::size_t kCount = 500;
  auto mapping = [](ThreadPool& pool) {
    std::vector<std::size_t> owner(kCount);
    pool.parallel_for(0, kCount, 1,
                      [&](std::size_t i, std::size_t w) { owner[i] = w; });
    return owner;
  };
  ThreadPool a(4);
  ThreadPool b(4);
  const std::vector<std::size_t> first = mapping(a);
  EXPECT_EQ(mapping(a), first) << "same pool, second run";
  EXPECT_EQ(mapping(b), first) << "fresh pool of the same size";
  for (std::size_t w : first) EXPECT_LT(w, 4u);
}

TEST(ThreadPool, PoolIsReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(0, 64, 1, [&](std::size_t, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50u * 64u);
}

TEST(ThreadPool, ExceptionsPropagateToTheCaller) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100, 1,
                          [&](std::size_t i, std::size_t) {
                            if (i == 37) throw std::runtime_error("boom@37");
                          }),
        std::runtime_error)
        << threads << " threads";
    // The pool survives a throwing job.
    std::atomic<std::size_t> ok{0};
    pool.parallel_for(0, 10, 1, [&](std::size_t, std::size_t) {
      ok.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ok.load(), 10u);
  }
}

TEST(ThreadPool, LowestFailingChunkWinsDeterministically) {
  // Two indices throw; the rethrown error must always be the one from
  // the lower-numbered chunk, regardless of wall-clock racing.
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      pool.parallel_for(0, 400, 1, [&](std::size_t i, std::size_t) {
        if (i == 11) throw std::runtime_error("low");
        if (i == 399) throw std::runtime_error("high");
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low");
    }
  }
}

}  // namespace
}  // namespace nashlb::util
