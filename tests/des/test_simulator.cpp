#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "des/facility.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace {

// Counting global operator new/delete: malloc passthrough plus a bump of
// g_alloc_count, so a test can assert that a region allocates nothing.
// Link-wide for this binary; the counter is read only around the regions
// under test.
std::size_t g_alloc_count = 0;

void* count_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return count_alloc(n); }
void* operator new[](std::size_t n) { return count_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nashlb::des {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunAdvancesClockThroughEvents) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule(1.5, [&](SimTime t) { seen.push_back(t); });
  sim.schedule(0.5, [&](SimTime t) { seen.push_back(t); });
  EXPECT_EQ(sim.run(), StopReason::Exhausted);
  EXPECT_EQ(seen, (std::vector<double>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++depth < 5) sim.schedule(1.0, chain);
  };
  sim.schedule(1.0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventLimit) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(1.0 * i, [&](SimTime) { ++fired; });
  }
  EXPECT_EQ(sim.run(3), StopReason::EventLimit);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(std::numeric_limits<double>::infinity(),
                            [](SimTime) {}),
               std::invalid_argument);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  sim.schedule(5.0, [](SimTime) {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_THROW(sim.schedule_at(4.0, [](SimTime) {}), std::invalid_argument);
  bool fired = false;
  sim.schedule_at(6.0, [&](SimTime) { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&](SimTime) { ++fired; });
  sim.schedule(2.0, [&](SimTime) { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EmptyStdFunctionFiresAsNoOp) {
  Simulator sim;
  const std::function<void(SimTime)> empty;
  sim.schedule(1.0, empty);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), StopReason::Exhausted);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, PendingClosuresAreDestroyed) {
  // One closure stored inline, one too large for the inline storage; both
  // hold a reference to `token`.
  struct Oversized {
    std::shared_ptr<int> token;
    double pad[16] = {};
    void operator()(SimTime) const {}
  };
  static_assert(!EventFn::fits_inline<Oversized>);
  const auto token = std::make_shared<int>(0);
  const auto schedule_both = [&token](Simulator& sim) {
    auto small = [token](SimTime) {};
    static_assert(EventFn::fits_inline<decltype(small)>);
    sim.schedule(1.0, small);
    sim.schedule(2.0, Oversized{token});
  };
  {
    Simulator sim;
    schedule_both(sim);
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_TRUE(sim.step());  // a fired closure is destroyed after it runs
    EXPECT_EQ(token.use_count(), 2);
    schedule_both(sim);
    EXPECT_EQ(token.use_count(), 4);
  }  // destroyed with three events still pending
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, SteadyStateJobsDoNotAllocate) {
  // An M/M/1 queue at 50% load through Simulator + Facility, driven by
  // closures that fit EventFn's inline storage.
  struct MM1 {
    Simulator sim;
    Facility cpu{sim, "cpu"};
    stats::Xoshiro256 arrival_rng{11};
    stats::Xoshiro256 service_rng{12};
    stats::Exponential interarrival{5.0};
    stats::Exponential service{10.0};
    std::uint64_t completed = 0;

    void arrive() {
      auto done = [this](SimTime) { ++completed; };
      auto next = [this](SimTime) { arrive(); };
      static_assert(EventFn::fits_inline<decltype(done)>);
      static_assert(EventFn::fits_inline<decltype(next)>);
      cpu.request(service.sample(service_rng), done);
      sim.schedule(interarrival.sample(arrival_rng), next);
    }
  };
  MM1 q;
  q.arrive();
  // Warm-up: the calendar, its slot pool and the waiting buffer grow to
  // the run's peak sizes.
  while (q.completed < 10000) q.sim.step();
  const std::size_t before = g_alloc_count;
  while (q.completed < 20000) q.sim.step();
  EXPECT_EQ(g_alloc_count - before, 0u);
}

}  // namespace
}  // namespace nashlb::des
