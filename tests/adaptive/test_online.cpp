#include "adaptive/online.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>

#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "workload/configs.hpp"

namespace {

// Counting global operator new/delete: malloc passthrough plus a bump of
// g_alloc_count, so a test can compare the allocations of two runs.
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

namespace nashlb::adaptive {
namespace {

RateSchedule constant_schedule(const std::vector<double>& phi) {
  RateSchedule s;
  s.start_times = {0.0};
  s.phi = {phi};
  return s;
}

TEST(RateSchedule, ValidatesShape) {
  RateSchedule s;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.start_times = {0.0, 10.0};
  s.phi = {{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_NO_THROW(s.validate());
  s.start_times = {5.0, 10.0};  // must start at 0
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.start_times = {0.0, 0.0};  // not ascending
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.start_times = {0.0, 10.0};
  s.phi = {{1.0, 2.0}, {2.0}};  // user count changes
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(RateSchedule, SelectsSegmentByTime) {
  RateSchedule s;
  s.start_times = {0.0, 10.0, 20.0};
  s.phi = {{1.0}, {2.0}, {3.0}};
  EXPECT_DOUBLE_EQ(s.at(0.0)[0], 1.0);
  EXPECT_DOUBLE_EQ(s.at(9.99)[0], 1.0);
  EXPECT_DOUBLE_EQ(s.at(10.0)[0], 2.0);
  EXPECT_DOUBLE_EQ(s.at(25.0)[0], 3.0);
}

TEST(Online, RejectsBadInputs) {
  const std::vector<double> mu{10.0, 5.0};
  const RateSchedule sched = constant_schedule({4.0, 2.0});
  core::StrategyProfile wrong(1, 2);
  EXPECT_THROW((void)simulate_online(mu, sched, wrong),
               std::invalid_argument);
  const RateSchedule overload = constant_schedule({20.0, 2.0});
  core::StrategyProfile ok(2, 2);
  EXPECT_THROW((void)simulate_online(mu, overload, ok),
               std::invalid_argument);
  // All-zero rows violate conservation: rejected up front, not sampled.
  core::StrategyProfile zeros(2, 2);
  EXPECT_THROW((void)simulate_online(mu, sched, zeros),
               std::invalid_argument);
  // A non-finite horizon would never stop generating jobs.
  core::StrategyProfile split(2, 2);
  split.set_row(0, std::vector<double>{0.5, 0.5});
  split.set_row(1, std::vector<double>{0.5, 0.5});
  OnlineOptions opts;
  opts.horizon = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)simulate_online(mu, sched, split, opts),
               std::invalid_argument);
  opts.horizon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)simulate_online(mu, sched, split, opts),
               std::invalid_argument);
}

TEST(Online, StaticModeReproducesFrozenProfile) {
  // With adapt = false and a constant schedule, the loop is exactly the
  // plain simulation: the measured mean must match the analytic value of
  // the frozen profile.
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  const core::StrategyProfile prop =
      core::StrategyProfile::proportional(inst);
  OnlineOptions opts;
  opts.horizon = 8000.0;
  opts.adapt = false;
  const OnlineResult res = simulate_online(
      inst.mu, constant_schedule(inst.phi), prop, opts);
  EXPECT_EQ(res.strategy_updates, 0u);
  EXPECT_EQ(res.final_profile.max_difference(prop), 0.0);
  EXPECT_NEAR(res.overall_mean_response,
              core::overall_response_time(inst, prop),
              0.05 * res.overall_mean_response);
}

TEST(Online, AdaptsTowardTheNashEquilibriumUnderConstantLoad) {
  // Starting from the (suboptimal) proportional profile with a constant
  // schedule, the measured-estimate controller should drive the system
  // close to the true equilibrium.
  core::Instance inst = workload::table1_instance(0.6, 4);
  const core::StrategyProfile prop =
      core::StrategyProfile::proportional(inst);
  OnlineOptions opts;
  opts.horizon = 4000.0;
  opts.update_period = 2.0;
  opts.window = 30.0;
  const OnlineResult res = simulate_online(
      inst.mu, constant_schedule(inst.phi), prop, opts);
  EXPECT_GT(res.strategy_updates, 100u);

  core::DynamicsOptions dopts;
  dopts.tolerance = 1e-8;
  const core::DynamicsResult eq = core::best_reply_dynamics(inst, dopts);
  const double d_eq = core::overall_response_time(inst, eq.profile);
  const double d_prop = core::overall_response_time(inst, prop);
  // The adapted operating point's measured response is much closer to
  // the equilibrium's than to the starting profile's.
  EXPECT_LT(std::abs(res.overall_mean_response - d_eq),
            0.5 * std::abs(d_prop - d_eq) + 0.05 * d_eq);
  // And the final profile itself certifies: evaluate analytically.
  const double d_final =
      core::overall_response_time(inst, res.final_profile);
  EXPECT_LT(d_final, d_prop);
}

TEST(Online, TracksALoadShift) {
  // Demand doubles mid-run; the adaptive loop must keep the post-shift
  // response time close to the post-shift equilibrium rather than the
  // stale one.
  core::Instance before = workload::table1_instance(0.35, 4);
  core::Instance after = workload::table1_instance(0.7, 4);

  RateSchedule sched;
  sched.start_times = {0.0, 2000.0};
  sched.phi = {before.phi, after.phi};

  core::DynamicsOptions dopts;
  dopts.tolerance = 1e-8;
  const core::StrategyProfile eq_before =
      core::best_reply_dynamics(before, dopts).profile;
  const core::StrategyProfile eq_after =
      core::best_reply_dynamics(after, dopts).profile;

  OnlineOptions opts;
  opts.horizon = 4000.0;
  opts.update_period = 2.0;
  opts.window = 30.0;
  const OnlineResult adaptive_run =
      simulate_online(before.mu, sched, eq_before, opts);
  OnlineOptions frozen = opts;
  frozen.adapt = false;
  const OnlineResult static_run =
      simulate_online(before.mu, sched, eq_before, frozen);

  // Post-shift steady-state windows (skip the adaptation transient).
  auto tail_mean = [&](const OnlineResult& r) {
    double acc = 0.0;
    std::uint64_t jobs = 0;
    for (const WindowReport& w : r.windows) {
      if (w.end_time > 2600.0 && w.end_time <= 4000.0) {
        acc += w.mean_response * static_cast<double>(w.jobs);
        jobs += w.jobs;
      }
    }
    return acc / static_cast<double>(jobs);
  };
  const double adaptive_tail = tail_mean(adaptive_run);
  const double static_tail = tail_mean(static_run);
  const double d_eq_after = core::overall_response_time(after, eq_after);
  const double d_stale = core::overall_response_time(after, eq_before);

  EXPECT_LT(adaptive_tail, static_tail);          // adaptation helps
  EXPECT_NEAR(adaptive_tail, d_eq_after, 0.15 * d_eq_after);
  EXPECT_NEAR(static_tail, d_stale, 0.15 * d_stale);
}

TEST(Online, WindowReportsPartitionTheRun) {
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  OnlineOptions opts;
  opts.horizon = 1000.0;
  opts.report_period = 100.0;
  const OnlineResult res =
      simulate_online(inst.mu, constant_schedule(inst.phi),
                      core::StrategyProfile::proportional(inst), opts);
  ASSERT_GE(res.windows.size(), 10u);
  std::uint64_t windowed = 0;
  for (const WindowReport& w : res.windows) windowed += w.jobs;
  EXPECT_EQ(windowed, res.jobs_completed);
}

// The exact sample path of one adaptive run across a load shift,
// captured as hex floats: any change to the event order, the RNG streams,
// the controller or the statistics shows up here as a bit difference.
TEST(Online, SamplePathIsPinned) {
  const core::Instance before = workload::table1_instance(0.35, 4);
  const core::Instance after = workload::table1_instance(0.7, 4);
  RateSchedule sched;
  sched.start_times = {0.0, 150.0};
  sched.phi = {before.phi, after.phi};
  OnlineOptions opts;
  opts.horizon = 300.0;
  opts.update_period = 2.0;
  opts.window = 30.0;
  opts.report_period = 100.0;
  opts.seed = 2002;
  const OnlineResult r = simulate_online(
      before.mu, sched, core::StrategyProfile::proportional(before), opts);
  EXPECT_EQ(r.jobs_completed, 80298u);
  EXPECT_EQ(r.strategy_updates, 150u);
  EXPECT_EQ(r.overall_mean_response, 0x1.c844bb318d489p-3);
  // {end time, mean response, jobs} of each report window.
  const double windows[4][3] = {
      {0x1.9p+6, 0x1.ed852b0eb94fdp-6, 17942},
      {0x1.9p+7, 0x1.96ee1f492fc9p-2, 26803},
      {0x1.2cp+8, 0x1.7508cded21681p-4, 35537},
      {0x1.9p+8, 0x1.16ab408a1574p-2, 16},
  };
  ASSERT_EQ(r.windows.size(), 4u);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(r.windows[w].end_time, windows[w][0]) << "window " << w;
    EXPECT_EQ(r.windows[w].mean_response, windows[w][1]) << "window " << w;
    EXPECT_EQ(static_cast<double>(r.windows[w].jobs), windows[w][2])
        << "window " << w;
  }
  // User 0's final strategy row.
  const double row0[16] = {
      0x1.c6f448972946p-7,  0x1.d5e53146b549cp-7, 0x1.d0f2672c5c0cp-7,
      0x1.da4a6e36cf714p-7, 0x1.d620a643641d5p-7, 0x1.9f9329e0a4e97p-7,
      0x1.23ac7ca4d6255p-5, 0x1.245539923e18ap-5, 0x1.42dc6dd70d774p-5,
      0x1.255b3d2c777b6p-5, 0x1.303e99b5c492cp-5, 0x1.8eab976968d48p-4,
      0x1.aa8c282c8d9b9p-4, 0x1.b405baa6d31b9p-4, 0x1.bee2167bc2a8bp-3,
      0x1.a6848bb36fef9p-3,
  };
  ASSERT_EQ(r.final_profile.num_computers(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(r.final_profile.at(0, i), row0[i]) << "computer " << i;
  }
}

TEST(Online, SteadyStateJobsDoNotAllocate) {
  // Table 1 at 30% load and one report window: a run twice as long adds
  // only jobs, so it must not add allocations. The calendar and the
  // waiting buffers reach their peak sizes early. The adaptive run puts
  // its first controller run past the horizon; the static run keeps the
  // default 5 s period, which must schedule no controller and copy no
  // meters at all.
  const core::Instance inst = workload::table1_instance(0.3, 4);
  const core::StrategyProfile prop =
      core::StrategyProfile::proportional(inst);
  for (const bool adapt : {true, false}) {
    const auto run = [&](double horizon, std::uint64_t& jobs) {
      OnlineOptions opts;
      opts.horizon = horizon;
      if (adapt) opts.update_period = 4.0 * horizon;
      opts.report_period = 4.0 * horizon;
      opts.adapt = adapt;
      const std::size_t before = g_alloc_count;
      jobs = simulate_online(inst.mu, constant_schedule(inst.phi), prop, opts)
                 .jobs_completed;
      return g_alloc_count - before;
    };
    std::uint64_t short_jobs = 0;
    std::uint64_t long_jobs = 0;
    const std::size_t short_allocs = run(200.0, short_jobs);
    const std::size_t long_allocs = run(400.0, long_jobs);
    EXPECT_GT(long_jobs, short_jobs + 20000) << "adapt=" << adapt;
    EXPECT_EQ(long_allocs, short_allocs) << "adapt=" << adapt;
  }
}

}  // namespace
}  // namespace nashlb::adaptive
