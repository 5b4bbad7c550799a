// simmodel::simulate against its event-calendar reference
// (support/calendar_sim.hpp): the same streams, draws and statistics, one
// run with a completion event per job and one without. Every result field
// and the on_sample sequence must agree bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "schemes/registry.hpp"
#include "simmodel/system_sim.hpp"
#include "support/calendar_sim.hpp"
#include "workload/configs.hpp"

namespace nashlb::simmodel {
namespace {

using Samples = std::vector<std::pair<std::size_t, std::uint64_t>>;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(bits(x));
  return out;
}

/// Runs the library and the reference with on_sample recording, and
/// checks every field of the two results.
void expect_same_run(const core::Instance& inst,
                     const core::StrategyProfile& profile, SimConfig cfg,
                     const std::string& label) {
  Samples lib_samples;
  Samples ref_samples;
  cfg.on_sample = [&](std::size_t user, double response) {
    lib_samples.emplace_back(user, bits(response));
  };
  const SimRunResult lib = simulate(inst, profile, cfg);
  cfg.on_sample = [&](std::size_t user, double response) {
    ref_samples.emplace_back(user, bits(response));
  };
  const SimRunResult ref = test_support::calendar_simulate(inst, profile, cfg);

  SCOPED_TRACE(label);
  EXPECT_EQ(lib.jobs_generated, ref.jobs_generated);
  EXPECT_EQ(lib.jobs_completed, ref.jobs_completed);
  EXPECT_EQ(bits(lib.end_time), bits(ref.end_time));
  EXPECT_EQ(bits(lib.overall_mean_response), bits(ref.overall_mean_response));
  EXPECT_EQ(bits(lib.user_mean_response), bits(ref.user_mean_response));
  EXPECT_EQ(lib.user_jobs, ref.user_jobs);
  EXPECT_EQ(bits(lib.computer_utilization), bits(ref.computer_utilization));
  ASSERT_EQ(lib.computer_sojourn.size(), ref.computer_sojourn.size());
  for (std::size_t i = 0; i < lib.computer_sojourn.size(); ++i) {
    const obs::Histogram& a = lib.computer_sojourn[i];
    const obs::Histogram& b = ref.computer_sojourn[i];
    EXPECT_EQ(a.count(), b.count()) << "computer " << i;
    EXPECT_EQ(bits(a.min()), bits(b.min())) << "computer " << i;
    EXPECT_EQ(bits(a.max()), bits(b.max())) << "computer " << i;
    for (std::size_t k = 0; k < obs::HistogramLayout::bucket_count(); ++k) {
      ASSERT_EQ(a.bucket(k), b.bucket(k)) << "computer " << i << " bucket "
                                          << k;
    }
  }
  EXPECT_GT(ref_samples.size(), 0u);
  EXPECT_EQ(lib_samples.size(), ref_samples.size());
  EXPECT_TRUE(lib_samples == ref_samples);
}

TEST(SystemSimDifferential, PaperSchemesOnTable1MatchTheCalendar) {
  for (const double rho : {0.1, 0.5, 0.9, 0.99}) {
    const core::Instance inst = workload::table1_instance(rho);
    for (const schemes::SchemePtr& scheme : schemes::paper_schemes()) {
      const core::StrategyProfile profile = scheme->solve(inst);
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SimConfig cfg;
        cfg.horizon = 60.0;
        cfg.warmup = 20.0;
        cfg.seed = seed;
        expect_same_run(inst, profile, cfg,
                        scheme->name() + " rho " + std::to_string(rho) +
                            " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(SystemSimDifferential, EdgeShapesMatchTheCalendar) {
  SimConfig cfg;
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  {
    // One user spread over three computers.
    core::Instance inst;
    inst.mu = {10.0, 20.0, 50.0};
    inst.phi = {60.0};
    expect_same_run(inst, core::StrategyProfile::proportional(inst), cfg,
                    "m = 1");
  }
  {
    // Three users sharing one computer at 90% load.
    core::Instance inst;
    inst.mu = {10.0};
    inst.phi = {5.0, 3.0, 1.0};
    expect_same_run(inst, core::StrategyProfile::proportional(inst), cfg,
                    "n = 1");
  }
  {
    // Rows with exact zeros: computers 1 and 3 get only user 1's jobs.
    core::Instance inst;
    inst.mu = {10.0, 5.0, 20.0, 8.0};
    inst.phi = {12.0, 6.0};
    core::StrategyProfile s(2, 4);
    s.set_row(0, std::vector<double>{0.5, 0.0, 0.5, 0.0});
    s.set_row(1, std::vector<double>{0.0, 0.5, 0.0, 0.5});
    expect_same_run(inst, s, cfg, "rows with exact zeros");
  }
}

}  // namespace
}  // namespace nashlb::simmodel
