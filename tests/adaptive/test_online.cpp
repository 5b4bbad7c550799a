#include "adaptive/online.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "workload/configs.hpp"

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

}  // namespace
}  // namespace nashlb::adaptive
