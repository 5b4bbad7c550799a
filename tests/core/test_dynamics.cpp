#include "core/dynamics.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/cost.hpp"
#include "core/equilibrium.hpp"
#include "support/fixtures.hpp"

namespace nashlb::core {
namespace {

using test_support::equal_demand_instance;

TEST(Dynamics, ConvergesToNashFromProportional) {
  const Instance inst = equal_demand_instance(4, 0.6);
  DynamicsOptions opts;
  opts.init = Initialization::Proportional;
  opts.tolerance = 1e-8;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_FALSE(res.diverged);
  EXPECT_TRUE(res.profile.is_feasible(inst));
  EXPECT_TRUE(is_nash_equilibrium(inst, res.profile, 1e-6));
}

TEST(Dynamics, ConvergesToNashFromZero) {
  const Instance inst = equal_demand_instance(4, 0.6);
  DynamicsOptions opts;
  opts.init = Initialization::Zero;
  opts.tolerance = 1e-8;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(is_nash_equilibrium(inst, res.profile, 1e-6));
}

TEST(Dynamics, BothInitializationsReachTheSameEquilibrium) {
  // Orda et al.: the equilibrium is unique for these cost functions, so
  // the two variants must agree.
  const Instance inst = equal_demand_instance(5, 0.7);
  DynamicsOptions o0;
  o0.init = Initialization::Zero;
  o0.tolerance = 1e-10;
  DynamicsOptions op = o0;
  op.init = Initialization::Proportional;
  const DynamicsResult r0 = best_reply_dynamics(inst, o0);
  const DynamicsResult rp = best_reply_dynamics(inst, op);
  ASSERT_TRUE(r0.converged);
  ASSERT_TRUE(rp.converged);
  EXPECT_LT(r0.profile.max_difference(rp.profile), 1e-4);
}

TEST(Dynamics, ProportionalInitConvergesFaster) {
  // The headline claim behind NASH_P (Figure 2).
  const Instance inst = equal_demand_instance(10, 0.6);
  DynamicsOptions o0;
  o0.init = Initialization::Zero;
  o0.tolerance = 1e-6;
  DynamicsOptions op = o0;
  op.init = Initialization::Proportional;
  const DynamicsResult r0 = best_reply_dynamics(inst, o0);
  const DynamicsResult rp = best_reply_dynamics(inst, op);
  ASSERT_TRUE(r0.converged);
  ASSERT_TRUE(rp.converged);
  EXPECT_LT(rp.iterations, r0.iterations);
}

TEST(Dynamics, NormHistoryIsRecordedAndDecays) {
  const Instance inst = equal_demand_instance(6, 0.5);
  DynamicsOptions opts;
  opts.tolerance = 1e-9;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  ASSERT_TRUE(res.converged);
  ASSERT_EQ(res.norm_history.size(), res.iterations);
  EXPECT_LE(res.norm_history.back(), 1e-9);
  // The norm at the end is far below the norm after round 1.
  EXPECT_LT(res.norm_history.back(),
            res.norm_history.front() * 1e-3 + 1e-12);
}

TEST(Dynamics, SingleUserConvergesInOneEffectiveRound) {
  // With one user, the first best reply is already optimal; the second
  // round only confirms it (norm 0).
  Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {6.0};
  DynamicsOptions opts;
  opts.init = Initialization::Zero;
  opts.tolerance = 1e-12;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 2u);
  EXPECT_TRUE(is_nash_equilibrium(inst, res.profile, 1e-9));
}

TEST(Dynamics, IterationCapReportsNonConvergence) {
  const Instance inst = equal_demand_instance(8, 0.9);
  DynamicsOptions opts;
  opts.tolerance = 0.0;     // unreachable
  opts.max_iterations = 3;  // tiny cap
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3u);
}

TEST(Dynamics, UserTimesMatchProfile) {
  const Instance inst = equal_demand_instance(4, 0.6);
  const DynamicsResult res = best_reply_dynamics(inst);
  const std::vector<double> direct = user_response_times(inst, res.profile);
  ASSERT_EQ(res.user_times.size(), direct.size());
  for (std::size_t j = 0; j < direct.size(); ++j) {
    EXPECT_NEAR(res.user_times[j], direct[j], 1e-12);
  }
}

TEST(Dynamics, FromExplicitStartProfile) {
  const Instance inst = equal_demand_instance(3, 0.5);
  StrategyProfile start = StrategyProfile::proportional(inst);
  const DynamicsResult res = best_reply_dynamics_from(inst, start);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(is_nash_equilibrium(inst, res.profile, 1e-3));

  StrategyProfile wrong(2, 2);
  EXPECT_THROW((void)best_reply_dynamics_from(inst, wrong),
               std::invalid_argument);
}

TEST(Dynamics, JacobiVariantRunsAndReportsHonestly) {
  // Simultaneous updates are not the paper's algorithm; at moderate load
  // they often still converge, but the contract is only "no silent lie":
  // either converged, or diverged/cap-hit is flagged.
  const Instance inst = equal_demand_instance(4, 0.3);
  DynamicsOptions opts;
  opts.order = UpdateOrder::Simultaneous;
  opts.max_iterations = 200;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  if (res.converged) {
    EXPECT_FALSE(res.diverged);
    EXPECT_TRUE(res.profile.is_feasible(inst));
  } else {
    EXPECT_TRUE(res.diverged || res.iterations == 200u);
  }
}

TEST(Dynamics, RandomOrderConvergesToTheSameEquilibrium) {
  const Instance inst = equal_demand_instance(6, 0.7);
  DynamicsOptions rr;
  rr.tolerance = 1e-10;
  DynamicsOptions rnd = rr;
  rnd.order = UpdateOrder::RandomOrder;
  const DynamicsResult a = best_reply_dynamics(inst, rr);
  const DynamicsResult b = best_reply_dynamics(inst, rnd);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LT(a.profile.max_difference(b.profile), 1e-4);
  EXPECT_TRUE(is_nash_equilibrium(inst, b.profile, 1e-6));
}

TEST(Dynamics, RandomOrderIsDeterministicPerSeed) {
  const Instance inst = equal_demand_instance(5, 0.6);
  DynamicsOptions o;
  o.order = UpdateOrder::RandomOrder;
  o.tolerance = 1e-8;
  o.order_seed = 99;
  const DynamicsResult a = best_reply_dynamics(inst, o);
  const DynamicsResult b = best_reply_dynamics(inst, o);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.profile.max_difference(b.profile), 0.0);
}

TEST(Dynamics, EquilibriumUserTimesDoNotExceedProportional) {
  // At the Nash equilibrium every user does at least as well as it would
  // if it stayed at the shared proportional profile... deviating first is
  // weakly better for the deviator, and the dynamics started there.
  const Instance inst = equal_demand_instance(5, 0.6);
  const StrategyProfile prop = StrategyProfile::proportional(inst);
  const std::vector<double> before = user_response_times(inst, prop);
  DynamicsOptions opts;
  opts.tolerance = 1e-8;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  ASSERT_TRUE(res.converged);
  // All users are symmetric here (equal phi), so the equilibrium is
  // symmetric and dominates the proportional profile for everyone.
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_LE(res.user_times[j], before[j] + 1e-9);
  }
}

}  // namespace
}  // namespace nashlb::core
