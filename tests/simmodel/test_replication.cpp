#include "simmodel/replication.hpp"

#include <gtest/gtest.h>

#include "core/cost.hpp"
#include "support/fixtures.hpp"

namespace nashlb::simmodel {
namespace {

using test_support::quick_replication_config;
using test_support::two_user_instance;

TEST(Replication, RequiresAtLeastTwo) {
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  ReplicationConfig cfg = quick_replication_config(1);
  EXPECT_THROW((void)replicate(inst, s, cfg), std::invalid_argument);
}

TEST(Replication, IntervalsCoverAnalyticTruth) {
  // §4.1's acceptance criterion in miniature: CI contains theory.
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  const ReplicatedResult r = replicate(inst, s, quick_replication_config());
  const std::vector<double> truth = core::user_response_times(inst, s);
  ASSERT_EQ(r.user_response.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    // Allow the interval a small numerical margin around the truth.
    EXPECT_LT(std::abs(r.user_response[j].mean - truth[j]),
              3.0 * r.user_response[j].half_width + 0.05 * truth[j])
        << "user " << j;
  }
  EXPECT_EQ(r.runs.size(), 5u);
  EXPECT_GT(r.total_jobs, 5u * 2000u * 5u);  // ~Phi * horizon * reps
}

TEST(Replication, SamplePathsArePinnedToStreamFamilies) {
  // Replication r always runs with RNG stream family r, so every run's
  // sample path must be bitwise identical whether the fan-out is
  // sequential, pooled, or auto-sized — exact equality, not tolerance.
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  ReplicationConfig seq = quick_replication_config(6);
  seq.base.horizon = 400.0;
  seq.threads = 1;
  const ReplicatedResult a = replicate(inst, s, seq);
  for (std::size_t threads : {0u, 2u, 3u, 8u}) {
    ReplicationConfig par = seq;
    par.threads = threads;
    const ReplicatedResult b = replicate(inst, s, par);
    for (std::size_t r = 0; r < 6; ++r) {
      EXPECT_EQ(a.runs[r].jobs_generated, b.runs[r].jobs_generated)
          << "threads=" << threads << " rep=" << r;
      EXPECT_EQ(a.runs[r].jobs_completed, b.runs[r].jobs_completed)
          << "threads=" << threads << " rep=" << r;
      EXPECT_EQ(a.runs[r].end_time, b.runs[r].end_time)
          << "threads=" << threads << " rep=" << r;
      EXPECT_EQ(a.runs[r].overall_mean_response,
                b.runs[r].overall_mean_response)
          << "threads=" << threads << " rep=" << r;
      for (std::size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(a.runs[r].user_mean_response[j],
                  b.runs[r].user_mean_response[j])
            << "threads=" << threads << " rep=" << r << " user=" << j;
      }
    }
    EXPECT_EQ(a.overall_response.mean, b.overall_response.mean);
    EXPECT_EQ(a.overall_response.half_width, b.overall_response.half_width);
  }
}

TEST(Replication, MergedSojournHistogramsSumTheRuns) {
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  ReplicationConfig cfg = quick_replication_config(3);
  cfg.base.horizon = 300.0;
  const ReplicatedResult r = replicate(inst, s, cfg);
  ASSERT_EQ(r.computer_sojourn.size(), 2u);
  if (!obs::kEnabled) {
    EXPECT_EQ(r.computer_sojourn[0].count(), 0u);  // no-op twin
    return;
  }
  for (std::size_t i = 0; i < 2; ++i) {
    std::uint64_t total = 0;
    double min_seen = 0.0;
    for (const SimRunResult& run : r.runs) {
      total += run.computer_sojourn[i].count();
      const double m = run.computer_sojourn[i].min();
      if (min_seen == 0.0 || (m > 0.0 && m < min_seen)) min_seen = m;
    }
    EXPECT_EQ(r.computer_sojourn[i].count(), total) << "computer " << i;
    EXPECT_EQ(r.computer_sojourn[i].min(), min_seen) << "computer " << i;
    EXPECT_GT(total, 0u);
  }
}

TEST(Replication, RelativeHalfWidthIsSmall) {
  // The paper reports standard error below 5% at 95% confidence; our
  // replications at this horizon meet the same bar.
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  const ReplicatedResult r = replicate(inst, s, quick_replication_config());
  EXPECT_LT(r.overall_response.relative_half_width(), 0.05);
}

TEST(Replication, UtilizationAveragedAcrossRuns) {
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  const ReplicatedResult r = replicate(inst, s, quick_replication_config(3));
  ASSERT_EQ(r.computer_utilization.size(), 2u);
  EXPECT_NEAR(r.computer_utilization[0], 0.4, 0.05);
  EXPECT_NEAR(r.computer_utilization[1], 0.4, 0.05);
}

}  // namespace
}  // namespace nashlb::simmodel
