#include "core/equilibrium.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/dynamics.hpp"
#include "support/oracles.hpp"

namespace nashlb::core {
namespace {

using test_support::best_random_deviation_gain;
using test_support::kkt_residual;

Instance instance(std::size_t users = 4, double util = 0.6) {
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  const double cap = std::accumulate(inst.mu.begin(), inst.mu.end(), 0.0);
  inst.phi.assign(users, util * cap / static_cast<double>(users));
  return inst;
}

StrategyProfile equilibrium_of(const Instance& inst) {
  DynamicsOptions opts;
  opts.tolerance = 1e-10;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  EXPECT_TRUE(res.converged);
  return res.profile;
}

TEST(Equilibrium, ComputedEquilibriumPassesAllCertificates) {
  const Instance inst = instance();
  const StrategyProfile eq = equilibrium_of(inst);

  EXPECT_TRUE(is_nash_equilibrium(inst, eq, 1e-7));
  EXPECT_LE(max_best_reply_gain(inst, eq), 1e-7);
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_LT(kkt_residual(inst, eq, j), 1e-4) << "user " << j;
  }
}

TEST(Equilibrium, ProportionalProfileIsNotAnEquilibrium) {
  const Instance inst = instance();
  const StrategyProfile prop = StrategyProfile::proportional(inst);
  EXPECT_FALSE(is_nash_equilibrium(inst, prop, 1e-7));
  EXPECT_GT(max_best_reply_gain(inst, prop), 1e-5);
  EXPECT_GT(kkt_residual(inst, prop, 0), 1e-3);
}

TEST(Equilibrium, InfeasibleProfileIsNotAnEquilibrium) {
  const Instance inst = instance();
  StrategyProfile s(inst.num_users(), inst.num_computers());
  EXPECT_FALSE(is_nash_equilibrium(inst, s));  // all-zero: no conservation
}

TEST(Equilibrium, RandomDeviationsCannotBeatEquilibrium) {
  const Instance inst = instance(3, 0.7);
  const StrategyProfile eq = equilibrium_of(inst);
  stats::Xoshiro256 rng(77);
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_LE(best_random_deviation_gain(inst, eq, j, rng, 300, 0.2), 1e-8)
        << "user " << j;
  }
}

TEST(Equilibrium, RandomDeviationsFindGainOffEquilibrium) {
  const Instance inst = instance(2, 0.3);  // phi_j = 27 each
  // Both users crowd onto computer 2 / 3, leaving faster capacity unused;
  // the falsifier must find an improvement.
  StrategyProfile bad(2, 4);
  bad.set_row(0, std::vector<double>{0.0, 0.0, 1.0, 0.0});
  bad.set_row(1, std::vector<double>{0.0, 0.0, 0.0, 1.0});
  ASSERT_TRUE(bad.is_feasible(inst));
  stats::Xoshiro256 rng(78);
  EXPECT_GT(best_random_deviation_gain(inst, bad, 0, rng, 300, 0.5), 1e-4);
}

TEST(Equilibrium, KktResidualBoundsChecks) {
  const Instance inst = instance();
  const StrategyProfile eq = equilibrium_of(inst);
  EXPECT_THROW((void)kkt_residual(inst, eq, 99), std::out_of_range);
  stats::Xoshiro256 rng(1);
  EXPECT_THROW((void)best_random_deviation_gain(inst, eq, 99, rng),
               std::out_of_range);
}

TEST(Equilibrium, KktResidualInfiniteOnOverloadedProfile) {
  Instance inst;
  inst.mu = {4.0, 10.0};
  inst.phi = {5.0};
  StrategyProfile s(1, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});  // 5 > 4: overloaded
  EXPECT_TRUE(std::isinf(kkt_residual(inst, s, 0)));
}

TEST(Equilibrium, HeterogeneousUsersStillCertify) {
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  inst.phi = {40.0, 20.0, 10.0, 5.0, 4.0};  // very uneven users
  const StrategyProfile eq = equilibrium_of(inst);
  EXPECT_TRUE(is_nash_equilibrium(inst, eq, 1e-6));
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_LT(kkt_residual(inst, eq, j), 1e-4);
  }
}

}  // namespace
}  // namespace nashlb::core
