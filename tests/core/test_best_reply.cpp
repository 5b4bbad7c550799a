#include "core/best_reply.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/cost.hpp"
#include "stats/rng.hpp"
#include "support/oracles.hpp"

namespace nashlb::core {
namespace {

using test_support::best_reply;
using test_support::user_response_time;

Instance small() {
  Instance inst;
  inst.mu = {10.0, 5.0, 2.0};
  inst.phi = {3.0, 2.0};
  return inst;
}

TEST(OptimalFractions, SumToOne) {
  const std::vector<double> f =
      optimal_fractions(std::vector<double>{10.0, 5.0, 2.0}, 4.0);
  EXPECT_NEAR(std::accumulate(f.begin(), f.end(), 0.0), 1.0, 1e-12);
  for (double x : f) EXPECT_GE(x, 0.0);
}

TEST(OptimalFractions, SingleUserEqualsGlobalWaterfill) {
  // With one user the best reply against nobody is the global optimum of
  // the single-class problem: fast computers loaded per the sqrt rule.
  const std::vector<double> f =
      optimal_fractions(std::vector<double>{4.0, 1.0}, 3.0);
  EXPECT_NEAR(f[0] * 3.0, 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(f[1] * 3.0, 1.0 / 3.0, 1e-12);
}

TEST(OptimalFractions, RejectsBadInputs) {
  EXPECT_THROW(optimal_fractions(std::vector<double>{5.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(optimal_fractions(std::vector<double>{5.0}, -1.0),
               std::invalid_argument);
  EXPECT_THROW(optimal_fractions(std::vector<double>{5.0}, 5.0),
               std::invalid_argument);
}

TEST(BestReply, ImprovesOnArbitraryFeasibleStrategy) {
  const Instance inst = small();
  StrategyProfile s(2, 3);
  s.set_row(0, std::vector<double>{0.2, 0.3, 0.5});
  s.set_row(1, std::vector<double>{0.6, 0.2, 0.2});
  ASSERT_TRUE(s.is_feasible(inst));

  const double before = user_response_time(inst, s, 0);
  StrategyProfile after = s;
  after.set_row(0, best_reply(inst, s, 0));
  const double improved = user_response_time(inst, after, 0);
  EXPECT_LE(improved, before + 1e-12);
  EXPECT_TRUE(after.is_feasible(inst));
}

TEST(BestReply, IsIdempotent) {
  // Replying twice against the same opponents gives the same strategy
  // (the best reply is unique by strict convexity).
  const Instance inst = small();
  StrategyProfile s(2, 3);
  s.set_row(0, std::vector<double>{0.5, 0.25, 0.25});
  s.set_row(1, std::vector<double>{0.5, 0.25, 0.25});
  const std::vector<double> r1 = best_reply(inst, s, 0);
  StrategyProfile s2 = s;
  s2.set_row(0, r1);
  const std::vector<double> r2 = best_reply(inst, s2, 0);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r1[i], r2[i], 1e-9);
  }
}

TEST(BestReply, RespectsOtherUsersLoads) {
  // If user 1 saturates the slow computer, user 0's reply avoids it.
  Instance inst;
  inst.mu = {10.0, 3.0};
  inst.phi = {2.0, 2.9};
  StrategyProfile s(2, 2);
  s.set_row(1, std::vector<double>{0.0, 1.0});  // 2.9 on computer 1
  const std::vector<double> reply = best_reply(inst, s, 0);
  // Available rates: {10, 0.1}: nearly everything goes to computer 0.
  EXPECT_GT(reply[0], 0.95);
}

TEST(BestReply, ThrowsWhenOthersOverloadEverything) {
  Instance inst;
  inst.mu = {4.0, 4.0};
  inst.phi = {1.0, 5.0};
  StrategyProfile s(2, 2);
  s.set_row(1, std::vector<double>{1.0, 0.0});  // 5 > mu_0: overloaded
  EXPECT_THROW(best_reply(inst, s, 0), std::invalid_argument);
  EXPECT_THROW(best_reply(inst, s, 7), std::out_of_range);
}

TEST(BestReplyGain, NonNegativeAndZeroAtOptimum) {
  const Instance inst = small();
  StrategyProfile s(2, 3);
  s.set_row(0, std::vector<double>{0.1, 0.1, 0.8});
  s.set_row(1, std::vector<double>{0.4, 0.4, 0.2});
  const double gain = best_reply_gain(inst, s, 0);
  EXPECT_GE(gain, 0.0);
  EXPECT_GT(gain, 1e-4);  // the start strategy is clearly suboptimal

  StrategyProfile at_opt = s;
  at_opt.set_row(0, best_reply(inst, s, 0));
  EXPECT_NEAR(best_reply_gain(inst, at_opt, 0), 0.0, 1e-10);
}

class BestReplyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BestReplyProperty, BeatsRandomFeasibleDeviations) {
  stats::Xoshiro256 rng(GetParam());
  Instance inst;
  const std::size_t n = 2 + rng.next_below(8);
  const std::size_t m = 2 + rng.next_below(4);
  inst.mu.resize(n);
  for (double& mu : inst.mu) mu = 5.0 + 45.0 * rng.next_double();
  const double cap = std::accumulate(inst.mu.begin(), inst.mu.end(), 0.0);
  inst.phi.assign(m, 0.6 * cap / static_cast<double>(m));

  // Opponents at the proportional profile; user 0 replies.
  StrategyProfile s = StrategyProfile::proportional(inst);
  StrategyProfile replied = s;
  replied.set_row(0, best_reply(inst, s, 0));
  const double best = user_response_time(inst, replied, 0);

  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> strat(n);
    double t = 0.0;
    for (double& x : strat) {
      x = rng.next_double_open();
      t += x;
    }
    for (double& x : strat) x /= t;
    StrategyProfile candidate = s;
    candidate.set_row(0, strat);
    if (!candidate.is_feasible(inst, 1e-9)) continue;
    EXPECT_GE(user_response_time(inst, candidate, 0), best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BestReplyProperty,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace nashlb::core
