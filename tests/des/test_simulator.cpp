#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "des/facility.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

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
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(seen, (std::vector<double>{0.5, 1.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
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
  int fired = 0;
  sim.schedule(1.0, empty);
  sim.schedule(2.0, [&fired](SimTime) { ++fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.step());  // the empty event fires and does nothing
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(fired, 0);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
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

}  // namespace
}  // namespace nashlb::des
