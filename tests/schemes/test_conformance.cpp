// Scheme-interface conformance matrix: every registered scheme, across a
// grid of instances, must produce a feasible profile with finite,
// positive metrics. This is the contract the benches and examples rely
// on when they iterate over schemes generically.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "schemes/metrics.hpp"
#include "schemes/registry.hpp"
#include "workload/configs.hpp"
#include "workload/random.hpp"

namespace nashlb::schemes {
namespace {

// (scheme, utilization). The name is a std::string, not a const char*:
// gtest prints a char pointer inside a tuple as its address, which would
// put a per-process value into every registered test name.
using Param = std::tuple<std::string, double>;

class SchemeConformance : public ::testing::TestWithParam<Param> {};

TEST_P(SchemeConformance, Table1InstanceContract) {
  const auto [name, util] = GetParam();
  const core::Instance inst = workload::table1_instance(util);
  const SchemePtr scheme = make_scheme(name);
  const core::StrategyProfile profile = scheme->solve(inst);

  EXPECT_TRUE(profile.is_feasible(inst, 1e-6)) << name;
  const Metrics m = evaluate(inst, profile);
  EXPECT_TRUE(std::isfinite(m.overall_response_time)) << name;
  EXPECT_GT(m.overall_response_time, 0.0) << name;
  EXPECT_GE(m.fairness, 1.0 / static_cast<double>(inst.num_users()));
  EXPECT_LE(m.fairness, 1.0 + 1e-9);
  for (double d : m.user_response_times) {
    EXPECT_TRUE(std::isfinite(d)) << name;
    EXPECT_GT(d, 0.0) << name;
  }
  double total_load = 0.0;
  for (std::size_t i = 0; i < inst.num_computers(); ++i) {
    EXPECT_LT(m.loads[i], inst.mu[i]) << name;
    total_load += m.loads[i];
  }
  EXPECT_NEAR(total_load, inst.total_arrival_rate(),
              1e-6 * inst.total_arrival_rate())
      << name;
}

TEST_P(SchemeConformance, RandomInstanceContract) {
  const auto [name, util] = GetParam();
  workload::RandomInstanceOptions opts;
  opts.utilization = util;
  opts.num_computers = 12;
  opts.num_users = 6;
  opts.heterogeneity = 20.0;
  opts.seed = static_cast<std::uint64_t>(util * 1000) + 7;
  const core::Instance inst = workload::random_instance(opts);
  const SchemePtr scheme = make_scheme(name);
  const core::StrategyProfile profile = scheme->solve(inst);
  EXPECT_TRUE(profile.is_feasible(inst, 1e-6)) << name;
  EXPECT_TRUE(
      std::isfinite(evaluate(inst, profile).overall_response_time))
      << name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeConformance,
    ::testing::Combine(::testing::Values("NASH_P", "NASH_0", "GOS",
                                         "GOS_UNIFORM", "IOS", "PS", "NBS"),
                       ::testing::Values(0.15, 0.5, 0.85)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return std::get<0>(param_info.param) + "_u" +
             std::to_string(
                 static_cast<int>(std::get<1>(param_info.param) * 100));
    });

}  // namespace
}  // namespace nashlb::schemes
