// Edge behaviours of the facility: multi-server dispatch, when a wait is
// recorded, dispatch-after-completion ordering and the FIFO waiting buffer
// across wrap-around and growth — the corners a queueing substrate has to
// get right.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "des/facility.hpp"

namespace nashlb::des {
namespace {

TEST(FacilityEdge, MultiServerFillsIdleBeforePreempting) {
  Simulator sim;
  Facility f(sim, "pool", 2, PreemptPolicy::None);
  int completed = 0;
  const auto count = [&completed](SimTime) { ++completed; };
  f.request(10.0, count);
  // Second server idle: the later job must take it rather than wait
  // behind, or displace, the running job.
  f.request(1.0, count);
  EXPECT_EQ(f.busy_servers(), 2u);
  EXPECT_EQ(f.queue_length(), 0u);
  sim.step();  // the short job completes at t = 1
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(f.busy_servers(), 1u);  // the long job still runs
}

TEST(FacilityEdge, CompletionCallbackCanResubmitSafely) {
  Simulator sim;
  Facility f(sim, "cpu");
  int generations = 0;
  std::function<void(SimTime)> resubmit = [&](SimTime) {
    if (++generations < 5) {
      f.request(1.0, resubmit);
    }
  };
  f.request(1.0, resubmit);
  sim.run();
  EXPECT_EQ(generations, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(FacilityEdge, FifoOrderSurvivesGrowthWhileWrapped) {
  Simulator sim;
  Facility f(sim, "cpu");
  std::vector<int> done;
  std::vector<double> waits(21, -1.0);  // completion - submit - service
  const auto submit = [&](int first, int last) {
    for (int id = first; id < last; ++id) {
      f.request(1.0, [&done, &waits, id, at = sim.now()](SimTime t) {
        done.push_back(id);
        waits[static_cast<std::size_t>(id)] = t - at - 1.0;
      });
    }
  };
  // Nine unit jobs at t = 0: one in service, eight waiting. By t = 3.5
  // three have finished, so the waiting jobs start mid-buffer; twelve
  // more arrivals then wrap around the end and outgrow the buffer.
  submit(0, 9);
  sim.schedule(3.5, [&](SimTime) {
    EXPECT_EQ(f.queue_length(), 5u);
    submit(9, 21);
    EXPECT_EQ(f.queue_length(), 17u);
  });
  sim.run();
  std::vector<int> expected(21);
  std::vector<double> expected_waits(21);
  for (int id = 0; id < 21; ++id) {
    expected[static_cast<std::size_t>(id)] = id;
    // Back-to-back unit jobs: job k completes at k + 1.
    expected_waits[static_cast<std::size_t>(id)] = id < 9 ? id : id - 3.5;
  }
  EXPECT_EQ(done, expected);
  EXPECT_DOUBLE_EQ(sim.now(), 21.0);
  EXPECT_EQ(waits, expected_waits);
}

TEST(FacilityEdge, WaitingTimeCountsOnlyFirstServiceStart) {
  Simulator sim;
  Facility f(sim, "cpu", 1, PreemptPolicy::None);
  std::vector<double> waits;  // completion - submit - service, per job
  f.request(4.0, [&waits](SimTime t) { waits.push_back(t - 0.0 - 4.0); });
  sim.schedule(1.0, [&](SimTime) {
    f.request(1.0, [&waits](SimTime t) { waits.push_back(t - 1.0 - 1.0); });
  });
  sim.schedule(2.0, [&](SimTime) {
    // The second job is still waiting behind the first.
    EXPECT_EQ(f.queue_length(), 1u);
    EXPECT_TRUE(waits.empty());
  });
  sim.run();
  // Each job waits once, until it starts service: 0 for the first job,
  // 3 (t = 1 to 4) for the second, which never displaces it.
  EXPECT_EQ(waits, (std::vector<double>{0.0, 3.0}));
}

}  // namespace
}  // namespace nashlb::des
