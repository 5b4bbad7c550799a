#include "distributed/monitor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nashlb::distributed {
namespace {

core::Instance instance() {
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  return inst;
}

TEST(RateMonitor, ExactModeReturnsTrueAvailableRates) {
  const core::Instance inst = instance();
  core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  RateMonitor monitor(0.0);
  std::vector<double> obs = s.available_rates(inst, 0);
  monitor.perturb(inst, obs);
  const std::vector<double> truth = s.available_rates(inst, 0);
  ASSERT_EQ(obs.size(), truth.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    EXPECT_DOUBLE_EQ(obs[i], truth[i]);
  }
}

TEST(RateMonitor, NoisyModePerturbsButStaysBounded) {
  const core::Instance inst = instance();
  core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  RateMonitor monitor(0.3, 42);
  bool saw_difference = false;
  const std::vector<double> truth = s.available_rates(inst, 0);
  for (int round = 0; round < 100; ++round) {
    std::vector<double> obs = s.available_rates(inst, 0);
    monitor.perturb(inst, obs);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      EXPECT_GT(obs[i], 0.0);
      EXPECT_LE(obs[i], truth[i] + 1e-12);  // never over-estimates
      if (obs[i] != truth[i]) saw_difference = true;
    }
  }
  EXPECT_TRUE(saw_difference);
}

TEST(RateMonitor, NoiseIsDeterministicPerSeed) {
  const core::Instance inst = instance();
  core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  RateMonitor a(0.2, 7), b(0.2, 7);
  for (int round = 0; round < 10; ++round) {
    std::vector<double> oa = s.available_rates(inst, 1);
    std::vector<double> ob = s.available_rates(inst, 1);
    a.perturb(inst, oa);
    b.perturb(inst, ob);
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_DOUBLE_EQ(oa[i], ob[i]);
    }
  }
}

TEST(RateMonitor, RejectsNegativeSigma) {
  EXPECT_THROW(RateMonitor(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace nashlb::distributed
