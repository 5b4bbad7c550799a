// Integration: the DES simulation agrees with the analytic M/M/1 model
// for every scheme on the paper's Table 1 system (V1 in DESIGN.md).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/cost.hpp"
#include "schemes/metrics.hpp"
#include "schemes/registry.hpp"
#include "simmodel/replication.hpp"
#include "stats/confidence.hpp"
#include "workload/configs.hpp"

namespace nashlb {
namespace {

class SimVsAnalytic : public ::testing::TestWithParam<const char*> {};

TEST_P(SimVsAnalytic, OverallResponseWithinFivePercent) {
  const core::Instance inst = workload::table1_instance(0.6);
  const schemes::SchemePtr scheme = schemes::make_scheme(GetParam());
  const core::StrategyProfile profile = scheme->solve(inst);
  const double analytic = core::overall_response_time(inst, profile);

  simmodel::ReplicationConfig cfg;
  cfg.base.horizon = 3000.0;
  cfg.base.warmup = 200.0;
  cfg.replications = 5;
  const simmodel::ReplicatedResult sim =
      simmodel::replicate(inst, profile, cfg);

  EXPECT_NEAR(sim.overall_response.mean, analytic, 0.05 * analytic)
      << GetParam() << ": sim " << sim.overall_response.mean
      << " vs analytic " << analytic;
  EXPECT_LT(sim.overall_response.relative_half_width(), 0.05);
}

TEST_P(SimVsAnalytic, PerUserResponseTracksAnalytic) {
  const core::Instance inst = workload::table1_instance(0.5);
  const schemes::SchemePtr scheme = schemes::make_scheme(GetParam());
  const core::StrategyProfile profile = scheme->solve(inst);
  const std::vector<double> analytic =
      core::user_response_times(inst, profile);

  simmodel::ReplicationConfig cfg;
  cfg.base.horizon = 3000.0;
  cfg.base.warmup = 200.0;
  cfg.replications = 5;
  const simmodel::ReplicatedResult sim =
      simmodel::replicate(inst, profile, cfg);

  for (std::size_t j = 0; j < analytic.size(); ++j) {
    std::vector<double> means;
    for (const simmodel::SimRunResult& run : sim.runs) {
      means.push_back(run.user_mean_response[j]);
    }
    EXPECT_NEAR(stats::t_interval(means, 0.95).mean, analytic[j],
                0.10 * analytic[j])
        << GetParam() << " user " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSchemes, SimVsAnalytic,
                         ::testing::Values("NASH", "GOS", "IOS", "PS"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace nashlb
