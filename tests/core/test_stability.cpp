// The game's stability conditions in core/types: every computer's load
// below its rate (StrategyProfile::is_feasible, constraint (iii)), and
// total demand below total capacity (Instance::validate).
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace nashlb::core {
namespace {

/// One user of demand `phi` on computers `mu`, playing `row`.
bool one_user_feasible(std::vector<double> mu, double phi,
                       const std::vector<double>& row) {
  Instance inst;
  inst.mu = std::move(mu);
  inst.phi = {phi};
  StrategyProfile s(1, inst.num_computers());
  s.set_row(0, row);
  return s.is_feasible(inst);
}

TEST(Stability, AllStationsStableBasic) {
  // Loads {1, 2} on rates {2, 3}.
  EXPECT_TRUE(one_user_feasible({2.0, 3.0}, 3.0, {1.0 / 3.0, 2.0 / 3.0}));
}

TEST(Stability, SaturatedStationIsUnstable) {
  EXPECT_FALSE(one_user_feasible({2.0}, 2.0, {1.0}));
  EXPECT_FALSE(one_user_feasible({2.0}, 3.0, {1.0}));
}

TEST(Stability, NegativeLoadIsInvalid) {
  EXPECT_FALSE(one_user_feasible({2.0, 2.0}, 0.1, {-1.0, 2.0}));
}

TEST(Stability, SystemStable) {
  Instance inst;
  inst.mu = {10.0, 20.0};
  inst.phi = {29.9};
  EXPECT_NO_THROW(inst.validate());
  inst.phi = {30.0};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  inst.phi = {-1.0};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Stability, SystemUtilization) {
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  inst.phi = {90.0};
  EXPECT_DOUBLE_EQ(inst.system_utilization(), 0.5);
  inst.phi = {0.0};
  EXPECT_DOUBLE_EQ(inst.system_utilization(), 0.0);
}

TEST(Stability, TotalCapacity) {
  Instance inst;
  inst.mu = {1.5, 2.5};
  inst.phi = {1.0};
  EXPECT_DOUBLE_EQ(inst.total_capacity(), 4.0);
  inst.mu = {1.0, 0.0};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  inst.mu = {-1.0};
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace nashlb::core
