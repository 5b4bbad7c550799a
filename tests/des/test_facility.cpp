#include "des/facility.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace nashlb::des {
namespace {

TEST(Facility, RejectsInvalidConstructionAndRequests) {
  Simulator sim;
  EXPECT_THROW(Facility(sim, "f", 0), std::invalid_argument);
  Facility f(sim, "f");
  EXPECT_THROW(f.request(0.0, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(f.request(-1.0, [](SimTime) {}), std::invalid_argument);
}

TEST(Facility, SingleJobCompletesAfterServiceTime) {
  Simulator sim;
  Facility f(sim, "cpu");
  double done_at = -1.0;
  f.request(2.5, [&](SimTime t) { done_at = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 2.5);
  EXPECT_EQ(f.completed(), 1u);
}

TEST(Facility, FcfsOrderPreserved) {
  Simulator sim;
  Facility f(sim, "cpu");
  std::vector<int> done;
  for (int i = 0; i < 4; ++i) {
    f.request(1.0, [&done, i](SimTime) { done.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Facility, QueueAndBusyCounts) {
  Simulator sim;
  Facility f(sim, "cpu");
  f.request(1.0, [](SimTime) {});
  f.request(1.0, [](SimTime) {});
  f.request(1.0, [](SimTime) {});
  EXPECT_EQ(f.busy_servers(), 1u);
  EXPECT_EQ(f.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(f.busy_servers(), 0u);
  EXPECT_EQ(f.queue_length(), 0u);
  EXPECT_EQ(f.completed(), 3u);
}

TEST(Facility, NoPreemptionUnderNonePolicy) {
  Simulator sim;
  Facility f(sim, "cpu", 1, PreemptPolicy::None);
  std::vector<char> done;
  f.request(10.0, [&](SimTime) { done.push_back('l'); });
  sim.schedule(1.0, [&](SimTime) {
    f.request(1.0, [&](SimTime) { done.push_back('h'); });
  });
  sim.run();
  // The long job runs to completion (the paper's model).
  EXPECT_EQ(done, (std::vector<char>{'l', 'h'}));
}

TEST(Facility, MultiServerParallelism) {
  Simulator sim;
  Facility f(sim, "pool", 3);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    f.request(2.0, [&](SimTime) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // all three ran concurrently
}

TEST(Facility, UtilizationMeasuresBusyFraction) {
  Simulator sim;
  Facility f(sim, "cpu");
  f.request(3.0, [](SimTime) {});
  sim.run();
  sim.schedule(3.0, [](SimTime) {});  // idle window [3, 6]
  sim.run();
  EXPECT_NEAR(f.utilization(sim.now()), 0.5, 1e-12);
}

TEST(Facility, MeanQueueLengthTimeWeighted) {
  Simulator sim;
  Facility f(sim, "cpu");
  // Two 1s jobs submitted at t=0: queue holds 1 job during [0,1), 0 after.
  f.request(1.0, [](SimTime) {});
  f.request(1.0, [](SimTime) {});
  sim.run();
  EXPECT_NEAR(f.mean_queue_length(2.0), 0.5, 1e-12);
}

TEST(Facility, WaitingTimeStats) {
  Simulator sim;
  Facility f(sim, "cpu");
  f.request(2.0, [](SimTime) {});  // waits 0
  f.request(2.0, [](SimTime) {});  // waits 2
  f.request(2.0, [](SimTime) {});  // waits 4
  sim.run();
  EXPECT_EQ(f.waiting_times().count(), 3u);
  EXPECT_NEAR(f.waiting_times().mean(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(f.waiting_times().max(), 4.0);
}

TEST(Facility, MM1SimulationMatchesTheory) {
  // End-to-end validation of the facility as an M/M/1 station:
  // lambda = 4, mu = 10 -> T = 1/6, rho = 0.4.
  Simulator sim;
  Facility f(sim, "cpu");
  stats::Xoshiro256 arr_rng(101), svc_rng(202);
  const stats::Exponential interarrival(4.0);
  const stats::Exponential service(10.0);
  stats::RunningStats response;
  constexpr double kHorizon = 20000.0;

  std::function<void()> arrive = [&]() {
    const double gap = interarrival.sample(arr_rng);
    if (sim.now() + gap > kHorizon) return;
    sim.schedule(gap, [&](SimTime t_arr) {
      f.request(service.sample(svc_rng),
                [&, t_arr](SimTime t_done) { response.add(t_done - t_arr); });
      arrive();
    });
  };
  arrive();
  sim.run();

  EXPECT_GT(response.count(), 50000u);
  EXPECT_NEAR(response.mean(), 1.0 / 6.0, 0.01);
  EXPECT_NEAR(f.utilization(sim.now()), 0.4, 0.01);
  // Little's law on the queue: Lq = lambda * Wq.
  EXPECT_NEAR(f.mean_queue_length(sim.now()),
              4.0 * f.waiting_times().mean(), 0.05);
}

}  // namespace
}  // namespace nashlb::des
