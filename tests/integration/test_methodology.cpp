// Integration: output-analysis methodology cross-checks and the fuzz
// sweep backing the paper's open convergence question.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "simmodel/replication.hpp"
#include "support/batch_means.hpp"
#include "support/oracles.hpp"
#include "workload/configs.hpp"
#include "workload/random.hpp"

namespace nashlb {
namespace {

TEST(Methodology, BatchMeansAgreesWithReplications) {
  // Same experiment, both §4.1-style replications and a single long run
  // analysed by batch means: the intervals must overlap and both must
  // cover the analytic value.
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  const double analytic = core::overall_response_time(inst, s);

  simmodel::ReplicationConfig rep_cfg;
  rep_cfg.base.horizon = 2000.0;
  rep_cfg.base.warmup = 100.0;
  const simmodel::ReplicatedResult reps =
      simmodel::replicate(inst, s, rep_cfg);

  test_support::BatchMeans bm(2000);  // ~30 batches at Phi * horizon samples
  simmodel::SimConfig long_run;
  long_run.horizon = 10000.0;
  long_run.warmup = 100.0;
  long_run.on_sample = [&](std::size_t, double r) { bm.add(r); };
  (void)simmodel::simulate(inst, s, long_run);

  ASSERT_GE(bm.batch_count(), 10u);
  const stats::ConfidenceInterval bm_ci = bm.interval(0.95);
  EXPECT_NEAR(bm_ci.mean, analytic, 0.05 * analytic);
  EXPECT_NEAR(reps.overall_response.mean, analytic, 0.05 * analytic);
  // Intervals overlap.
  EXPECT_LT(std::max(bm_ci.lower(), reps.overall_response.lower()),
            std::min(bm_ci.upper(), reps.overall_response.upper()));
  // Batches long enough: low lag-1 autocorrelation.
  EXPECT_LT(std::fabs(bm.lag1_autocorrelation()), 0.4);
}

TEST(Methodology, ResponseTimeDistributionIsExponentialForMM1) {
  // For a single M/M/1 computer the sojourn time is exponential with
  // rate mu - lambda; the simulated histogram must match that tail.
  core::Instance inst;
  inst.mu = {10.0};
  inst.phi = {4.0};
  core::StrategyProfile s(1, 1);
  s.set(0, 0, 1.0);

  // 20 equal bins over [0, 1); samples past 1 count only in the total.
  constexpr std::size_t kBins = 20;
  constexpr double kWidth = 1.0 / static_cast<double>(kBins);
  std::array<std::uint64_t, kBins> counts{};
  std::uint64_t total = 0;
  simmodel::SimConfig cfg;
  cfg.horizon = 20000.0;
  cfg.warmup = 200.0;
  cfg.on_sample = [&](std::size_t, double r) {
    ++total;
    if (r >= 0.0 && r < 1.0) {
      // min() guards the floating-point edge just below 1.
      ++counts[std::min(static_cast<std::size_t>(r / kWidth), kBins - 1)];
    }
  };
  (void)simmodel::simulate(inst, s, cfg);

  ASSERT_GT(total, 50000u);
  const double rate = 6.0;  // mu - lambda
  for (std::size_t bin = 0; bin < kBins; bin += 4) {
    const double lo = kWidth * static_cast<double>(bin);
    const double hi = lo + kWidth;
    const double expect =
        std::exp(-rate * lo) - std::exp(-rate * hi);
    const double fraction =
        static_cast<double>(counts[bin]) / static_cast<double>(total);
    EXPECT_NEAR(fraction, expect, 0.15 * expect + 0.002) << "bin " << bin;
  }
}

class ConvergenceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConvergenceFuzz, RandomInstancesConvergeAndCertify) {
  workload::RandomInstanceOptions opts;
  stats::Xoshiro256 meta(GetParam());
  opts.num_computers = 2 + meta.next_below(30);
  opts.num_users = 2 + meta.next_below(16);
  opts.utilization = 0.15 + 0.75 * meta.next_double();
  opts.heterogeneity = 1.0 + 49.0 * meta.next_double();
  opts.user_skew = 1.0 + 9.0 * meta.next_double();
  opts.seed = GetParam() * 1000;
  const core::Instance inst = workload::random_instance(opts);

  core::DynamicsOptions dopts;
  dopts.tolerance = 1e-8;
  dopts.max_iterations = 5000;
  const core::DynamicsResult res = core::best_reply_dynamics(inst, dopts);
  ASSERT_TRUE(res.converged)
      << "n=" << opts.num_computers << " m=" << opts.num_users
      << " rho=" << opts.utilization;
  EXPECT_TRUE(core::is_nash_equilibrium(inst, res.profile, 1e-5));
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_LT(test_support::kkt_residual(inst, res.profile, j), 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvergenceFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace nashlb
