#include "schemes/nbs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/cost.hpp"
#include "schemes/gos.hpp"
#include "schemes/metrics.hpp"
#include "schemes/nash.hpp"

namespace nashlb::schemes {
namespace {

core::Instance instance(double util = 0.6) {
  core::Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  const double phi = util * 180.0;
  inst.phi = {0.5 * phi, 0.3 * phi, 0.2 * phi};
  return inst;
}

double nash_product_log(const core::Instance& inst,
                        const core::StrategyProfile& s) {
  double g = 0.0;
  for (double d : core::user_response_times(inst, s)) g += std::log(d);
  return g;
}

TEST(NBS, SolverConvergesToFeasibleProfile) {
  // solve() throws unless the projected gradient converged.
  const core::Instance inst = instance();
  EXPECT_NO_THROW({
    const core::StrategyProfile s = NbsScheme().solve(inst);
    EXPECT_TRUE(s.is_feasible(inst, 1e-6));
  });
}

TEST(NBS, ImprovesNashProductOverProportional) {
  const core::Instance inst = instance();
  const core::StrategyProfile nbs = NbsScheme().solve(inst);
  const core::StrategyProfile prop =
      core::StrategyProfile::proportional(inst);
  EXPECT_LT(nash_product_log(inst, nbs), nash_product_log(inst, prop));
}

TEST(NBS, NashProductAtLeastAsGoodAsCompetitors) {
  // NBS maximizes the Nash product by construction; the noncooperative
  // equilibrium and GOS cannot beat it on that objective.
  const core::Instance inst = instance(0.7);
  const double nbs = nash_product_log(inst, NbsScheme().solve(inst));
  const double nash = nash_product_log(
      inst,
      NashScheme(core::Initialization::Proportional, 1e-9).solve(inst));
  const double gos =
      nash_product_log(inst, GlobalOptimalScheme().solve(inst));
  EXPECT_LE(nbs, nash + 1e-6);
  EXPECT_LE(nbs, gos + 1e-6);
}

TEST(NBS, OverallTimeNoBetterThanGos) {
  const core::Instance inst = instance(0.5);
  const Metrics nbs = evaluate(inst, NbsScheme().solve(inst));
  const Metrics gos = evaluate(inst, GlobalOptimalScheme().solve(inst));
  EXPECT_GE(nbs.overall_response_time,
            gos.overall_response_time - 1e-9);
}

TEST(NBS, FairAllocationForSymmetricUsers) {
  core::Instance inst;
  inst.mu = {10.0, 50.0};
  inst.phi = {12.0, 12.0};  // symmetric users
  const Metrics m = evaluate(inst, NbsScheme().solve(inst));
  EXPECT_NEAR(m.user_response_times[0], m.user_response_times[1], 1e-5);
  EXPECT_GT(m.fairness, 0.999);
}

TEST(NBS, SingleUserReducesToThatUsersOptimum) {
  // With one user the Nash product is just D_1: NBS == OPTIMAL == GOS.
  core::Instance inst;
  inst.mu = {10.0, 20.0, 50.0};
  inst.phi = {30.0};
  const Metrics nbs = evaluate(inst, NbsScheme(1e-10, 50000).solve(inst));
  const Metrics gos = evaluate(inst, GlobalOptimalScheme().solve(inst));
  EXPECT_NEAR(nbs.overall_response_time, gos.overall_response_time, 1e-4);
}

}  // namespace
}  // namespace nashlb::schemes
