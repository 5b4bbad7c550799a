#include "core/potential.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/waterfill.hpp"
#include "stats/rng.hpp"

namespace nashlb::core {
namespace {

TEST(Beckmann, ZeroLoadIsZero) {
  const std::vector<double> mu{10.0, 5.0};
  EXPECT_DOUBLE_EQ(beckmann_potential(std::vector<double>{0.0, 0.0}, mu),
                   0.0);
}

TEST(Beckmann, KnownValue) {
  // B = ln(10) - ln(6) + ln(5) - ln(4).
  const std::vector<double> mu{10.0, 5.0};
  const std::vector<double> lambda{4.0, 1.0};
  EXPECT_NEAR(beckmann_potential(lambda, mu),
              std::log(10.0 / 6.0) + std::log(5.0 / 4.0), 1e-12);
}

TEST(Beckmann, RejectsUnstableLoads) {
  const std::vector<double> mu{10.0};
  EXPECT_THROW((void)beckmann_potential(std::vector<double>{10.0}, mu),
               std::invalid_argument);
  EXPECT_THROW((void)beckmann_potential(std::vector<double>{-1.0}, mu),
               std::invalid_argument);
  EXPECT_THROW(
      (void)beckmann_potential(std::vector<double>{1.0, 1.0}, mu),
      std::invalid_argument);
}

TEST(Beckmann, WardropLoadsMinimizeThePotential) {
  // The theory behind IOS: waterfill_linear is the Beckmann minimizer.
  stats::Xoshiro256 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.next_below(8);
    std::vector<double> mu(n);
    double cap = 0.0;
    for (double& m : mu) {
      m = 5.0 + 45.0 * rng.next_double();
      cap += m;
    }
    const double phi = 0.7 * cap * rng.next_double_open();
    const WaterfillResult eq = waterfill_linear(mu, phi);
    const double b_eq = beckmann_potential(eq.lambda, mu);

    // Random feasible competitors never score lower.
    for (int k = 0; k < 30; ++k) {
      std::vector<double> l(n);
      double w = 0.0;
      std::vector<double> weights(n);
      for (double& x : weights) {
        x = rng.next_double_open();
        w += x;
      }
      bool ok = true;
      for (std::size_t i = 0; i < n; ++i) {
        l[i] = phi * weights[i] / w;
        if (l[i] >= mu[i]) ok = false;
      }
      if (!ok) continue;
      EXPECT_GE(beckmann_potential(l, mu), b_eq - 1e-9);
    }
  }
}

}  // namespace
}  // namespace nashlb::core
