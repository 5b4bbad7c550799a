#include "core/waterfill.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "stats/rng.hpp"

namespace nashlb::core {
namespace {

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---------------------------------------------------------------------
// Directed unit tests
// ---------------------------------------------------------------------

TEST(WaterfillSqrt, RejectsBadInputs) {
  const std::vector<double> mu{10.0, 5.0};
  EXPECT_THROW(waterfill_sqrt(std::vector<double>{}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(waterfill_sqrt(std::vector<double>{10.0, 0.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(waterfill_sqrt(mu, -1.0), std::invalid_argument);
  EXPECT_THROW(waterfill_sqrt(mu, 15.0), std::invalid_argument);
  EXPECT_THROW(waterfill_sqrt(mu, 16.0), std::invalid_argument);
}

TEST(WaterfillSqrt, SingleComputerGetsEverything) {
  const WaterfillResult r = waterfill_sqrt(std::vector<double>{10.0}, 7.0);
  EXPECT_DOUBLE_EQ(r.lambda[0], 7.0);
  EXPECT_EQ(r.active_count, 1u);
}

TEST(WaterfillSqrt, ZeroDemandAllocatesNothing) {
  const WaterfillResult r =
      waterfill_sqrt(std::vector<double>{10.0, 5.0}, 0.0);
  EXPECT_DOUBLE_EQ(total(r.lambda), 0.0);
  EXPECT_EQ(r.active_count, 0u);
}

TEST(WaterfillSqrt, HomogeneousSplitsEvenly) {
  const WaterfillResult r =
      waterfill_sqrt(std::vector<double>{8.0, 8.0, 8.0, 8.0}, 6.0);
  for (double l : r.lambda) EXPECT_NEAR(l, 1.5, 1e-12);
  EXPECT_EQ(r.active_count, 4u);
}

TEST(WaterfillSqrt, LowDemandUsesOnlyFastComputers) {
  // With tiny demand the slow computer must stay empty: at the optimum no
  // idle computer's marginal 1/mu may undercut the active marginal.
  const WaterfillResult r =
      waterfill_sqrt(std::vector<double>{100.0, 1.0}, 1.0);
  EXPECT_DOUBLE_EQ(r.lambda[1], 0.0);
  EXPECT_DOUBLE_EQ(r.lambda[0], 1.0);
  EXPECT_EQ(r.active_count, 1u);
}

TEST(WaterfillSqrt, KnownTwoComputerSolution) {
  // mu = {4, 1}, phi = 2: both active iff sqrt(1) > t with
  // t = (5-2)/(2+1) = 1 -> NOT active (boundary); only the fast one used.
  const WaterfillResult r = waterfill_sqrt(std::vector<double>{4.0, 1.0}, 2.0);
  EXPECT_EQ(r.active_count, 1u);
  EXPECT_DOUBLE_EQ(r.lambda[0], 2.0);
  EXPECT_DOUBLE_EQ(r.lambda[1], 0.0);
}

TEST(WaterfillSqrt, KnownTwoComputerInteriorSolution) {
  // mu = {4, 1}, phi = 3: t = (5-3)/3 = 2/3 < 1 -> both active.
  // lambda_0 = 4 - 2*(2/3) = 8/3, lambda_1 = 1 - 2/3 = 1/3.
  const WaterfillResult r = waterfill_sqrt(std::vector<double>{4.0, 1.0}, 3.0);
  EXPECT_EQ(r.active_count, 2u);
  EXPECT_NEAR(r.lambda[0], 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.lambda[1], 1.0 / 3.0, 1e-12);
}

TEST(WaterfillSqrt, OrderIndependentOfInputPermutation) {
  const std::vector<double> a{10.0, 20.0, 50.0};
  const std::vector<double> b{50.0, 10.0, 20.0};
  const WaterfillResult ra = waterfill_sqrt(a, 30.0);
  const WaterfillResult rb = waterfill_sqrt(b, 30.0);
  EXPECT_NEAR(ra.lambda[0], rb.lambda[1], 1e-12);
  EXPECT_NEAR(ra.lambda[1], rb.lambda[2], 1e-12);
  EXPECT_NEAR(ra.lambda[2], rb.lambda[0], 1e-12);
}

TEST(WaterfillLinear, EqualizesResponseTimes) {
  const std::vector<double> mu{10.0, 6.0, 2.0};
  const WaterfillResult r = waterfill_linear(mu, 12.0);
  // All active: t = (18-12)/3 = 2 == mu_2 -> boundary, computer 2 dropped:
  // t = (16-12)/2 = 2; lambda = {8, 4, 0}; response times 1/2 each.
  EXPECT_DOUBLE_EQ(r.lambda[0], 8.0);
  EXPECT_DOUBLE_EQ(r.lambda[1], 4.0);
  EXPECT_DOUBLE_EQ(r.lambda[2], 0.0);
  const double f0 = 1.0 / (mu[0] - r.lambda[0]);
  const double f1 = 1.0 / (mu[1] - r.lambda[1]);
  EXPECT_NEAR(f0, f1, 1e-12);
  // The idle computer is not faster than the common level.
  EXPECT_GE(1.0 / mu[2], f0 - 1e-12);
}

TEST(WaterfillLinear, HighDemandActivatesAll) {
  const std::vector<double> mu{10.0, 6.0, 2.0};
  const WaterfillResult r = waterfill_linear(mu, 16.0);
  EXPECT_EQ(r.active_count, 3u);
  const double f0 = 1.0 / (mu[0] - r.lambda[0]);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_NEAR(1.0 / (mu[i] - r.lambda[i]), f0, 1e-12);
  }
}

TEST(WaterfillLinear, RejectsBadInputs) {
  EXPECT_THROW(waterfill_linear(std::vector<double>{}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(waterfill_linear(std::vector<double>{1.0}, 1.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Property sweep: invariants on random instances
// ---------------------------------------------------------------------

struct SweepParam {
  std::size_t n;          // number of computers
  double utilization;     // demand / capacity
  std::uint64_t seed;
};

// The fields, as in the INSTANTIATE_TEST_SUITE_P list, not gtest's byte
// dump, in the registered ctest names.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << '{' << p.n << ',' << p.utilization << ',' << p.seed << '}';
}

class WaterfillProperty : public ::testing::TestWithParam<SweepParam> {};

std::vector<double> random_capacities(std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256 rng(seed);
  std::vector<double> mu(n);
  for (double& m : mu) {
    m = 1.0 + 99.0 * rng.next_double();  // heterogeneity up to ~100x
  }
  return mu;
}

TEST_P(WaterfillProperty, SqrtRuleInvariants) {
  const auto [n, util, seed] = GetParam();
  const std::vector<double> mu = random_capacities(n, seed);
  const double demand = util * total(mu);
  const WaterfillResult r = waterfill_sqrt(mu, demand);

  // Conservation (exact by construction).
  EXPECT_NEAR(total(r.lambda), demand, 1e-9 * (1.0 + demand));
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Positivity and stability.
    EXPECT_GE(r.lambda[i], 0.0);
    EXPECT_LT(r.lambda[i], mu[i]);
    if (r.lambda[i] > 0.0) ++active;
  }
  EXPECT_EQ(active, r.active_count);

  // KKT: equal marginals mu/(mu-l)^2 on the support, no idle computer
  // with a smaller marginal 1/mu.
  double alpha = 0.0;
  std::size_t support = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (r.lambda[i] > 1e-12 * demand) {
      const double slack = mu[i] - r.lambda[i];
      alpha += mu[i] / (slack * slack);
      ++support;
    }
  }
  if (support == 0) return;
  alpha /= static_cast<double>(support);
  for (std::size_t i = 0; i < n; ++i) {
    if (r.lambda[i] > 1e-12 * demand) {
      const double slack = mu[i] - r.lambda[i];
      EXPECT_NEAR(mu[i] / (slack * slack), alpha, 1e-6 * alpha);
    } else {
      EXPECT_GE(1.0 / mu[i], alpha * (1.0 - 1e-9));
    }
  }
}

TEST_P(WaterfillProperty, SqrtRuleBeatsRandomFeasibleAllocations) {
  const auto [n, util, seed] = GetParam();
  const std::vector<double> mu = random_capacities(n, seed);
  const double demand = util * total(mu);
  const WaterfillResult r = waterfill_sqrt(mu, demand);

  auto cost = [&](const std::vector<double>& l) {
    double c = 0.0;
    for (std::size_t i = 0; i < l.size(); ++i) c += l[i] / (mu[i] - l[i]);
    return c;
  };
  const double opt = cost(r.lambda);

  // Random feasible competitors (rejection-sampled proportional jitter).
  stats::Xoshiro256 rng(seed ^ 0xabcdef);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> w(n);
    for (double& x : w) x = rng.next_double_open();
    double wt = total(w);
    std::vector<double> l(n);
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      l[i] = demand * w[i] / wt;
      if (l[i] >= mu[i]) ok = false;
    }
    if (!ok) continue;
    EXPECT_GE(cost(l), opt - 1e-9 * (1.0 + opt));
  }
}

TEST_P(WaterfillProperty, LinearRuleInvariants) {
  const auto [n, util, seed] = GetParam();
  const std::vector<double> mu = random_capacities(n, seed + 17);
  const double demand = util * total(mu);
  const WaterfillResult r = waterfill_linear(mu, demand);

  EXPECT_NEAR(total(r.lambda), demand, 1e-9 * (1.0 + demand));
  double common = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(r.lambda[i], 0.0);
    EXPECT_LT(r.lambda[i], mu[i]);
    if (r.lambda[i] > 1e-12 * demand) {
      const double f = 1.0 / (mu[i] - r.lambda[i]);
      if (common < 0.0) {
        common = f;
      } else {
        EXPECT_NEAR(f, common, 1e-6 * common);  // Wardrop equalization
      }
    }
  }
  if (common > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (r.lambda[i] <= 1e-12 * demand) {
        EXPECT_GE(1.0 / mu[i], common * (1.0 - 1e-9));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaterfillProperty,
    ::testing::Values(
        SweepParam{2, 0.1, 1}, SweepParam{2, 0.5, 2}, SweepParam{2, 0.9, 3},
        SweepParam{5, 0.1, 4}, SweepParam{5, 0.5, 5}, SweepParam{5, 0.9, 6},
        SweepParam{16, 0.1, 7}, SweepParam{16, 0.6, 8},
        SweepParam{16, 0.95, 9}, SweepParam{64, 0.3, 10},
        SweepParam{64, 0.8, 11}, SweepParam{256, 0.5, 12},
        SweepParam{256, 0.99, 13}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      return "n" + std::to_string(param_info.param.n) + "_u" +
             std::to_string(
                 static_cast<int>(param_info.param.utilization * 100));
    });

}  // namespace
}  // namespace nashlb::core
