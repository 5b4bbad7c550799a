#include "simmodel/system_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "core/cost.hpp"
#include "workload/configs.hpp"

namespace nashlb::simmodel {
namespace {

core::Instance small_instance() {
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  return inst;
}

TEST(SystemSim, RejectsInfeasibleProfile) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile zero(2, 2);  // violates conservation
  EXPECT_THROW((void)simulate(inst, zero), std::invalid_argument);
}

TEST(SystemSim, RejectsBadConfig) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig cfg;
  cfg.horizon = 0.0;
  EXPECT_THROW((void)simulate(inst, s, cfg), std::invalid_argument);
  cfg.horizon = 10.0;
  cfg.warmup = 10.0;
  EXPECT_THROW((void)simulate(inst, s, cfg), std::invalid_argument);
  // A non-finite horizon would never stop generating jobs.
  cfg.warmup = 0.0;
  cfg.horizon = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)simulate(inst, s, cfg), std::invalid_argument);
  cfg.horizon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)simulate(inst, s, cfg), std::invalid_argument);
  cfg.horizon = 10.0;
  cfg.warmup = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)simulate(inst, s, cfg), std::invalid_argument);
  cfg.warmup = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)simulate(inst, s, cfg), std::invalid_argument);
}

TEST(SystemSim, DeterministicForSameSeedAndReplication) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig cfg;
  cfg.horizon = 200.0;
  cfg.warmup = 10.0;
  const SimRunResult a = simulate(inst, s, cfg);
  const SimRunResult b = simulate(inst, s, cfg);
  EXPECT_EQ(a.jobs_generated, b.jobs_generated);
  EXPECT_DOUBLE_EQ(a.overall_mean_response, b.overall_mean_response);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_DOUBLE_EQ(a.user_mean_response[j], b.user_mean_response[j]);
  }
}

// The exact sample path of one run, captured as hex floats: any change to
// the event order, the RNG streams or the statistics shows up here as a
// bit difference, not as a shift inside a tolerance.
TEST(SystemSim, SamplePathIsPinned) {
  const core::Instance inst = workload::table1_instance(0.6);
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig cfg;
  cfg.horizon = 200.0;
  cfg.warmup = 100.0;
  cfg.seed = 2002;
  const SimRunResult r = simulate(inst, s, cfg);
  EXPECT_EQ(r.jobs_generated, 61497u);
  EXPECT_EQ(r.jobs_completed, 61497u);
  EXPECT_EQ(r.end_time, 0x1.908a1a69c55e2p+7);
  EXPECT_EQ(r.overall_mean_response, 0x1.468215e135a4ep-4);
  // {utilization, mean queue length} of each computer.
  const double computers[16][2] = {
      {0x1.361a09510ea85p-1, 0x1.f2d5918f2c151p-1},
      {0x1.33a3e10e60b16p-1, 0x1.a9847d3edb6a8p-1},
      {0x1.4604af283c47bp-1, 0x1.3aa9c346d6ac4p+0},
      {0x1.2f733265c9928p-1, 0x1.bcc5e15110766p-1},
      {0x1.5289733458626p-1, 0x1.7980a77e0d91bp+0},
      {0x1.2c1d1a431dca9p-1, 0x1.b604c52d6b439p-1},
      {0x1.38177492650d5p-1, 0x1.c07b02e51d6cfp-1},
      {0x1.31d409a8dfe41p-1, 0x1.c611e2a3778f7p-1},
      {0x1.29e74620d753cp-1, 0x1.76180abb4aec5p-1},
      {0x1.328aaf9d90fe9p-1, 0x1.7dc27ce146cc6p-1},
      {0x1.336ccfaef0066p-1, 0x1.70b5fe68f8ba2p-1},
      {0x1.33fab26733839p-1, 0x1.c4a122c6a9b9bp-1},
      {0x1.3738cac711f2dp-1, 0x1.a8679af3ac991p-1},
      {0x1.34098b4a91537p-1, 0x1.cdba112ee4fdp-1},
      {0x1.353284fb81e0cp-1, 0x1.f933b0b152ccbp-1},
      {0x1.35e59b27a4b85p-1, 0x1.d063b622214e9p-1},
  };
  ASSERT_EQ(r.computer_utilization.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(r.computer_utilization[i], computers[i][0]) << "computer " << i;
    EXPECT_EQ(r.computer_mean_queue[i], computers[i][1]) << "computer " << i;
  }
}

TEST(SystemSim, DifferentReplicationsDiffer) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig cfg;
  cfg.horizon = 200.0;
  SimConfig cfg2 = cfg;
  cfg2.replication = 1;
  const SimRunResult a = simulate(inst, s, cfg);
  const SimRunResult b = simulate(inst, s, cfg2);
  EXPECT_NE(a.jobs_generated, b.jobs_generated);
}

TEST(SystemSim, JobCountMatchesArrivalRates) {
  const core::Instance inst = small_instance();  // Phi = 6 jobs/sec
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig cfg;
  cfg.horizon = 2000.0;
  cfg.warmup = 0.0;
  const SimRunResult r = simulate(inst, s, cfg);
  EXPECT_NEAR(static_cast<double>(r.jobs_generated), 6.0 * 2000.0,
              3.0 * std::sqrt(6.0 * 2000.0) * 2.0);
  EXPECT_EQ(r.jobs_completed, r.jobs_generated);  // fully drained
  EXPECT_GE(r.end_time, cfg.horizon * 0.99);
}

TEST(SystemSim, MeanResponseMatchesMM1Theory) {
  // Proportional profile on the small instance: both queues at rho = 0.4;
  // user response time = sum_i s_i / (mu_i - lambda_i).
  const core::Instance inst = small_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  const std::vector<double> expected = core::user_response_times(inst, s);

  SimConfig cfg;
  cfg.horizon = 20000.0;
  cfg.warmup = 500.0;
  const SimRunResult r = simulate(inst, s, cfg);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(r.user_mean_response[j], expected[j],
                0.05 * expected[j])
        << "user " << j;
  }
  EXPECT_NEAR(r.overall_mean_response,
              core::overall_response_time(inst, s),
              0.05 * r.overall_mean_response);
}

TEST(SystemSim, UtilizationMatchesLoads) {
  const core::Instance inst = small_instance();
  core::StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});  // user 0 -> computer 0
  s.set_row(1, std::vector<double>{0.0, 1.0});  // user 1 -> computer 1
  SimConfig cfg;
  cfg.horizon = 10000.0;
  const SimRunResult r = simulate(inst, s, cfg);
  EXPECT_NEAR(r.computer_utilization[0], 4.0 / 10.0, 0.02);
  EXPECT_NEAR(r.computer_utilization[1], 2.0 / 5.0, 0.02);
}

TEST(SystemSim, ZeroFractionComputersReceiveNoJobs) {
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {3.0};
  core::StrategyProfile s(1, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  SimConfig cfg;
  cfg.horizon = 1000.0;
  const SimRunResult r = simulate(inst, s, cfg);
  EXPECT_DOUBLE_EQ(r.computer_utilization[1], 0.0);
}

TEST(SystemSim, PerComputerStatsMatchMM1Theory) {
  // Dedicated computers: computer 0 is an M/M/1 with lambda=4, mu=10
  // (T = 1/6, Lq = 4/15); computer 1 with lambda=2, mu=5.
  const core::Instance inst = small_instance();
  core::StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  s.set_row(1, std::vector<double>{0.0, 1.0});
  SimConfig cfg;
  cfg.horizon = 30000.0;
  cfg.warmup = 500.0;
  const SimRunResult r = simulate(inst, s, cfg);
  EXPECT_NEAR(r.computer_mean_response[0], 1.0 / 6.0, 0.01);
  EXPECT_NEAR(r.computer_mean_response[1], 1.0 / 3.0, 0.02);
  EXPECT_NEAR(r.computer_mean_queue[0], 4.0 * (0.4 / 6.0), 0.03);
  EXPECT_GT(r.computer_jobs[0], 2 * r.computer_jobs[1] / 2);
  // Little's law at each station: L = lambda * T with
  // L = Lq + utilization and lambda from the completed-job count.
  for (std::size_t i = 0; i < 2; ++i) {
    const double lambda = inst.phi[i];
    const double l_measured =
        r.computer_mean_queue[i] + r.computer_utilization[i];
    EXPECT_NEAR(l_measured, lambda * r.computer_mean_response[i],
                0.05 * l_measured + 0.01)
        << "computer " << i;
  }
}

TEST(SystemSim, OnSampleHookSeesEveryMeasuredJob) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig cfg;
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  std::uint64_t hook_calls = 0;
  double hook_sum = 0.0;
  cfg.on_sample = [&](std::size_t user, double response) {
    EXPECT_LT(user, 2u);
    EXPECT_GT(response, 0.0);
    ++hook_calls;
    hook_sum += response;
  };
  const SimRunResult r = simulate(inst, s, cfg);
  const std::uint64_t measured = r.user_jobs[0] + r.user_jobs[1];
  EXPECT_EQ(hook_calls, measured);
  EXPECT_NEAR(hook_sum / static_cast<double>(hook_calls),
              r.overall_mean_response, 1e-9);
}

TEST(SystemSim, WarmupExcludesEarlyJobs) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  SimConfig with_warmup;
  with_warmup.horizon = 500.0;
  with_warmup.warmup = 400.0;
  SimConfig without = with_warmup;
  without.warmup = 0.0;
  const SimRunResult a = simulate(inst, s, with_warmup);
  const SimRunResult b = simulate(inst, s, without);
  const std::uint64_t measured_a =
      std::accumulate(a.user_jobs.begin(), a.user_jobs.end(),
                      std::uint64_t{0});
  const std::uint64_t measured_b =
      std::accumulate(b.user_jobs.begin(), b.user_jobs.end(),
                      std::uint64_t{0});
  EXPECT_LT(measured_a, measured_b);
  EXPECT_GT(measured_a, 0u);
}

}  // namespace
}  // namespace nashlb::simmodel
