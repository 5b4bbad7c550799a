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
  f.request(10.0, [](SimTime) {});
  // Second server idle: the later job must take it rather than wait
  // behind, or displace, the running job.
  f.request(1.0, [](SimTime) {});
  EXPECT_EQ(f.busy_servers(), 2u);
  EXPECT_EQ(f.queue_length(), 0u);
  sim.step();  // the short job completes at t = 1
  EXPECT_EQ(f.completed(), 1u);
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
  const auto submit = [&](int first, int last) {
    for (int id = first; id < last; ++id) {
      f.request(1.0, [&done, id](SimTime) { done.push_back(id); });
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
  for (int id = 0; id < 21; ++id) expected[static_cast<std::size_t>(id)] = id;
  EXPECT_EQ(done, expected);
  EXPECT_DOUBLE_EQ(sim.now(), 21.0);
  EXPECT_EQ(f.waiting_times().count(), 21u);
}

TEST(FacilityEdge, WaitingTimeCountsOnlyFirstServiceStart) {
  Simulator sim;
  Facility f(sim, "cpu", 1, PreemptPolicy::None);
  f.request(4.0, [](SimTime) {});  // waits 0
  sim.schedule(1.0, [&](SimTime) { f.request(1.0, [](SimTime) {}); });
  sim.schedule(2.0, [&](SimTime) {
    // The second job is still waiting: nothing is recorded for it yet.
    EXPECT_EQ(f.waiting_times().count(), 1u);
  });
  sim.run();
  // Each wait is counted once, when the job starts service: 0 for the
  // first job, 3 (t = 1 to 4) for the second, which never displaces it.
  EXPECT_EQ(f.waiting_times().count(), 2u);
  EXPECT_DOUBLE_EQ(f.waiting_times().max(), 3.0);
}

}  // namespace
}  // namespace nashlb::des
