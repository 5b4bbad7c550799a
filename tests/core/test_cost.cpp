#include "core/cost.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "support/oracles.hpp"

namespace nashlb::core {
namespace {

using test_support::user_response_time;

Instance two_by_two() {
  Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  return inst;
}

TEST(Cost, ComputerResponseTimesAreMM1Sojourns) {
  const Instance inst = two_by_two();
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  s.set_row(1, std::vector<double>{0.0, 1.0});
  const std::vector<double> f = computer_response_times(inst, s);
  EXPECT_DOUBLE_EQ(f[0], 1.0 / (10.0 - 4.0));
  EXPECT_DOUBLE_EQ(f[1], 1.0 / (5.0 - 2.0));
}

TEST(Cost, UserResponseTimeIsStrategyWeighted) {
  const Instance inst = two_by_two();
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{0.5, 0.5});
  s.set_row(1, std::vector<double>{0.5, 0.5});
  // lambda = (3, 3); F = (1/7, 1/2); D_j = 0.5/7 + 0.5/2 for both users.
  const double expected = 0.5 / 7.0 + 0.5 / 2.0;
  EXPECT_NEAR(user_response_time(inst, s, 0), expected, 1e-12);
  EXPECT_NEAR(user_response_time(inst, s, 1), expected, 1e-12);
  const std::vector<double> d = user_response_times(inst, s);
  EXPECT_NEAR(d[0], expected, 1e-12);
  EXPECT_NEAR(d[1], expected, 1e-12);
}

TEST(Cost, OverallIsJobWeightedAverage) {
  const Instance inst = two_by_two();
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  s.set_row(1, std::vector<double>{0.0, 1.0});
  // D_0 = 1/6, D_1 = 1/3; overall = (4*(1/6) + 2*(1/3))/6.
  const double expected = (4.0 / 6.0 + 2.0 / 3.0) / 6.0;
  EXPECT_NEAR(overall_response_time(inst, s), expected, 1e-12);
}

TEST(Cost, UnusedUnstableComputerDoesNotPoisonUser) {
  Instance inst;
  inst.mu = {10.0, 1.0};
  inst.phi = {4.0, 2.0};
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  s.set_row(1, std::vector<double>{0.0, 1.0});  // 2 > mu_1 = 1: unstable
  // User 0 does not use computer 1 -> finite; user 1 does -> infinite.
  EXPECT_TRUE(std::isfinite(user_response_time(inst, s, 0)));
  EXPECT_TRUE(std::isinf(user_response_time(inst, s, 1)));
  EXPECT_TRUE(std::isinf(overall_response_time(inst, s)));
}

TEST(Cost, OverallFromLoadsMatchesProfileForm) {
  const Instance inst = two_by_two();
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{0.75, 0.25});
  s.set_row(1, std::vector<double>{0.25, 0.75});
  const std::vector<double> lambda = s.loads(inst);
  EXPECT_NEAR(overall_response_time(inst, s),
              overall_response_time_from_loads(lambda, inst.mu), 1e-12);
}

TEST(Cost, OverallFromLoadsEdgeCases) {
  const std::vector<double> mu{10.0, 5.0};
  EXPECT_DOUBLE_EQ(
      overall_response_time_from_loads(std::vector<double>{0.0, 0.0}, mu),
      0.0);
  EXPECT_TRUE(std::isinf(overall_response_time_from_loads(
      std::vector<double>{10.0, 0.0}, mu)));
  EXPECT_THROW(static_cast<void>(overall_response_time_from_loads(std::vector<double>{1.0}, mu)), std::invalid_argument);
}

TEST(Cost, ConvexityAlongFeasibleSegment) {
  // D_j is convex in the user's own strategy (the appendix proof's key
  // fact): check midpoint convexity on a random segment.
  const Instance inst = two_by_two();
  StrategyProfile base(2, 2);
  base.set_row(1, std::vector<double>{0.5, 0.5});

  auto d_of = [&](double a) {
    StrategyProfile s = base;
    s.set_row(0, std::vector<double>{a, 1.0 - a});
    return user_response_time(inst, s, 0);
  };
  const double a0 = 0.2, a1 = 0.9;
  EXPECT_LE(d_of(0.5 * (a0 + a1)), 0.5 * (d_of(a0) + d_of(a1)) + 1e-12);
}

}  // namespace
}  // namespace nashlb::core
