#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace nashlb::stats {
namespace {

TEST(Exponential, RejectsBadRate) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(Exponential(std::nan("")), std::invalid_argument);
}

TEST(Exponential, SampleMeanMatchesTheory) {
  const Exponential d(4.0);
  Xoshiro256 rng(1);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(Exponential, SamplesArePositive) {
  const Exponential d(2.0);
  Xoshiro256 rng(2);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(d.sample(rng), 0.0);
  }
}

TEST(Exponential, TailProbabilityMatchesTheory) {
  // P(X > 1/rate) = 1/e.
  const Exponential d(3.0);
  Xoshiro256 rng(3);
  int over = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (d.sample(rng) > 1.0 / 3.0) ++over;
  }
  EXPECT_NEAR(static_cast<double>(over) / kN, std::exp(-1.0), 0.01);
}

TEST(Normal, RejectsBadParams) {
  EXPECT_THROW(Normal(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Normal(std::nan(""), 1.0), std::invalid_argument);
}

TEST(Normal, MomentsMatchTheory) {
  const Normal d(3.0, 2.0);
  Xoshiro256 rng(5);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = d.sample(rng);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Normal, ZeroSigmaIsDegenerate) {
  const Normal d(1.5, 0.0);
  Xoshiro256 rng(6);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(d.sample(rng), 1.5);
  }
}

TEST(Discrete, RejectsBadWeights) {
  EXPECT_THROW(Discrete(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Discrete(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(Discrete(std::vector<double>{1.0, -0.5}),
               std::invalid_argument);
}

TEST(Discrete, NormalizesProbabilities) {
  const Discrete d(std::vector<double>{2.0, 6.0});
  EXPECT_NEAR(d.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(d.probability(1), 0.75, 1e-12);
  EXPECT_THROW(static_cast<void>(d.probability(2)), std::out_of_range);
}

TEST(Discrete, ZeroWeightEntriesNeverDrawn) {
  const Discrete d(std::vector<double>{0.0, 1.0, 0.0, 1.0});
  Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = d.sample(rng);
    EXPECT_TRUE(k == 1 || k == 3);
  }
}

TEST(Discrete, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  const Discrete d(w);
  Xoshiro256 rng(8);
  std::array<int, 4> counts{};
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) ++counts[d.sample(rng)];
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / kN, w[k] / 10.0, 0.005);
  }
}

TEST(Discrete, SingleOutcome) {
  const Discrete d(std::vector<double>{5.0});
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 0u);
}

TEST(Discrete, ManyCategoriesStillExact) {
  // Alias table over 1000 uniform categories: each ~1/1000.
  std::vector<double> w(1000, 1.0);
  const Discrete d(w);
  Xoshiro256 rng(10);
  std::vector<int> counts(1000, 0);
  constexpr int kN = 1000000;
  for (int i = 0; i < kN; ++i) ++counts[d.sample(rng)];
  int min_c = counts[0], max_c = counts[0];
  for (int c : counts) {
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  EXPECT_GT(min_c, 700);   // E = 1000, sd ~ 32
  EXPECT_LT(max_c, 1300);
}

}  // namespace
}  // namespace nashlb::stats
