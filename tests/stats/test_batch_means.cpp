#include "support/batch_means.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/rng.hpp"

namespace nashlb::stats {
namespace {

using test_support::BatchMeans;

TEST(BatchMeans, RejectsZeroBatchSize) {
  EXPECT_THROW(BatchMeans(0), std::invalid_argument);
}

TEST(BatchMeans, CompletesBatchesAtExactBoundaries) {
  BatchMeans bm(3);
  bm.add(1.0);
  bm.add(2.0);
  EXPECT_EQ(bm.batch_count(), 0u);
  bm.add(3.0);  // first batch complete: mean 2
  EXPECT_EQ(bm.batch_count(), 1u);
  EXPECT_DOUBLE_EQ(bm.batch_means()[0], 2.0);
  bm.add(10.0);
  EXPECT_EQ(bm.batch_count(), 1u);  // partial batch excluded
  EXPECT_EQ(bm.observations(), 4u);
}

TEST(BatchMeans, GrandMeanOverCompleteBatches) {
  BatchMeans bm(2);
  bm.add(1.0);
  bm.add(3.0);  // batch mean 2
  bm.add(5.0);
  bm.add(7.0);  // batch mean 6
  bm.add(100.0);  // partial, ignored
  EXPECT_DOUBLE_EQ(bm.mean(), 4.0);
}

TEST(BatchMeans, IntervalNeedsTwoBatches) {
  BatchMeans bm(2);
  bm.add(1.0);
  bm.add(1.0);
  EXPECT_THROW((void)bm.interval(), std::invalid_argument);
  bm.add(2.0);
  bm.add(2.0);
  const ConfidenceInterval ci = bm.interval(0.95);
  EXPECT_DOUBLE_EQ(ci.mean, 1.5);
  EXPECT_GT(ci.half_width, 0.0);
}

TEST(BatchMeans, IidStreamCoversTrueMean) {
  // Exponential(2) stream: mean 0.5. 40 batches of 500 samples; the 95%
  // interval should contain 0.5 (checked at a single seed — this is a
  // deterministic regression, not a statistical assertion).
  stats::Xoshiro256 rng(99);
  BatchMeans bm(500);
  for (int i = 0; i < 20000; ++i) {
    bm.add(-0.5 * std::log(rng.next_double_open()));
  }
  EXPECT_EQ(bm.batch_count(), 40u);
  const ConfidenceInterval ci = bm.interval(0.95);
  EXPECT_TRUE(ci.contains(0.5)) << ci.mean << " +/- " << ci.half_width;
  EXPECT_LT(ci.relative_half_width(), 0.05);
}

TEST(BatchMeans, Lag1AutocorrelationNearZeroForIid) {
  stats::Xoshiro256 rng(7);
  BatchMeans bm(100);
  for (int i = 0; i < 10000; ++i) bm.add(rng.next_double());
  EXPECT_LT(std::fabs(bm.lag1_autocorrelation()), 0.3);
}

TEST(BatchMeans, Lag1AutocorrelationDetectsTrend) {
  BatchMeans bm(10);
  for (int i = 0; i < 1000; ++i) bm.add(static_cast<double>(i));
  EXPECT_GT(bm.lag1_autocorrelation(), 0.9);  // strongly correlated
}

TEST(BatchMeans, FewBatchesAutocorrelationIsZero) {
  BatchMeans bm(1);
  bm.add(1.0);
  bm.add(2.0);
  EXPECT_DOUBLE_EQ(bm.lag1_autocorrelation(), 0.0);
}

}  // namespace
}  // namespace nashlb::stats
