#include "core/types.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/dynamics.hpp"

namespace nashlb::core {
namespace {

Instance small_instance() {
  Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  return inst;
}

TEST(Instance, Aggregates) {
  const Instance inst = small_instance();
  EXPECT_DOUBLE_EQ(inst.total_arrival_rate(), 6.0);
  EXPECT_DOUBLE_EQ(inst.total_capacity(), 15.0);
  EXPECT_DOUBLE_EQ(inst.system_utilization(), 0.4);
  EXPECT_EQ(inst.num_computers(), 2u);
  EXPECT_EQ(inst.num_users(), 2u);
}

TEST(Instance, ValidateAcceptsStableSystem) {
  EXPECT_NO_THROW(small_instance().validate());
}

TEST(Instance, ValidateRejectsOverload) {
  Instance inst = small_instance();
  inst.phi = {10.0, 5.0};  // Phi == capacity
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  // Finite rates whose sum overflows: Phi < inf must not pass as stable.
  inst.mu = {1e308, 1e308};
  inst.phi = {1.5e308};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  EXPECT_THROW((void)best_reply_dynamics(inst), std::invalid_argument);
}

TEST(Instance, ValidateRejectsNonPositiveRates) {
  Instance inst = small_instance();
  inst.mu[0] = 0.0;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  inst = small_instance();
  inst.phi[1] = -1.0;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsEmpty) {
  Instance inst;
  inst.phi = {1.0};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  inst.mu = {10.0};
  inst.phi = {};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(StrategyProfile, ZeroConstruction) {
  const StrategyProfile s(3, 4);
  EXPECT_EQ(s.num_users(), 3u);
  EXPECT_EQ(s.num_computers(), 4u);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(s.at(j, i), 0.0);
    }
  }
  EXPECT_THROW(StrategyProfile(0, 4), std::invalid_argument);
}

TEST(StrategyProfile, SetAndGetWithBoundsChecks) {
  StrategyProfile s(2, 2);
  s.set(1, 0, 0.7);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 0.7);
  EXPECT_THROW(static_cast<void>(s.at(2, 0)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(s.set(0, 2, 0.1)), std::out_of_range);
}

TEST(StrategyProfile, ProportionalRowsSumToOne) {
  const Instance inst = small_instance();
  const StrategyProfile s = StrategyProfile::proportional(inst);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(s.at(j, 0) + s.at(j, 1), 1.0, 1e-12);
    EXPECT_NEAR(s.at(j, 0), 10.0 / 15.0, 1e-12);
  }
  EXPECT_TRUE(s.is_feasible(inst));
}

TEST(StrategyProfile, LoadsAggregateUserFlows) {
  const Instance inst = small_instance();
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  s.set_row(1, std::vector<double>{0.5, 0.5});
  const std::vector<double> lambda = s.loads(inst);
  EXPECT_DOUBLE_EQ(lambda[0], 4.0 + 1.0);
  EXPECT_DOUBLE_EQ(lambda[1], 1.0);
}

TEST(StrategyProfile, AvailableRatesExcludeOwnFlow) {
  const Instance inst = small_instance();
  StrategyProfile s(2, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});
  s.set_row(1, std::vector<double>{0.5, 0.5});
  // User 0 sees mu minus user 1's flow only.
  const std::vector<double> avail0 = s.available_rates(inst, 0);
  EXPECT_DOUBLE_EQ(avail0[0], 10.0 - 1.0);
  EXPECT_DOUBLE_EQ(avail0[1], 5.0 - 1.0);
  // User 1 sees mu minus user 0's flow only.
  const std::vector<double> avail1 = s.available_rates(inst, 1);
  EXPECT_DOUBLE_EQ(avail1[0], 10.0 - 4.0);
  EXPECT_DOUBLE_EQ(avail1[1], 5.0);
}

TEST(StrategyProfile, FeasibilityChecksAllThreeConstraints) {
  const Instance inst = small_instance();
  StrategyProfile s(2, 2);
  // Conservation violated (all zero).
  EXPECT_FALSE(s.is_feasible(inst));
  // Feasible.
  s.set_row(0, std::vector<double>{0.5, 0.5});
  s.set_row(1, std::vector<double>{0.5, 0.5});
  EXPECT_TRUE(s.is_feasible(inst));
  // Positivity violated.
  s.set_row(0, std::vector<double>{1.5, -0.5});
  EXPECT_FALSE(s.is_feasible(inst));
}

TEST(StrategyProfile, StabilityViolationDetected) {
  Instance inst;
  inst.mu = {4.0, 10.0};
  inst.phi = {6.0};
  StrategyProfile s(1, 2);
  s.set_row(0, std::vector<double>{1.0, 0.0});  // 6 > mu_0 = 4
  EXPECT_FALSE(s.is_feasible(inst));
  s.set_row(0, std::vector<double>{0.0, 1.0});
  EXPECT_TRUE(s.is_feasible(inst));
}

TEST(StrategyProfile, SetRowValidatesSize) {
  StrategyProfile s(1, 3);
  EXPECT_THROW(s.set_row(0, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(s.set_row(1, std::vector<double>{1.0, 0.0, 0.0}),
               std::out_of_range);
}

TEST(StrategyProfile, MaxDifference) {
  StrategyProfile a(1, 2), b(1, 2);
  a.set_row(0, std::vector<double>{0.3, 0.7});
  b.set_row(0, std::vector<double>{0.5, 0.5});
  EXPECT_NEAR(a.max_difference(b), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(a.max_difference(a), 0.0);
  StrategyProfile c(2, 2);
  EXPECT_THROW(static_cast<void>(a.max_difference(c)), std::invalid_argument);
}

TEST(StrategyProfile, EqualityIsValueBased) {
  StrategyProfile a(1, 2), b(1, 2);
  EXPECT_TRUE(a == b);
  a.set(0, 0, 0.1);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace nashlb::core
