#include "mechanism/payments.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "support/oracles.hpp"

namespace nashlb::mechanism {
namespace {

using test_support::best_misreport_gain;

// True cost parameters (1/mu) of a 4-computer system with rates
// {10, 20, 50, 100} jobs/s.
std::vector<double> true_costs() {
  return {1.0 / 10.0, 1.0 / 20.0, 1.0 / 50.0, 1.0 / 100.0};
}

TEST(Mechanism, WorkAllocationMatchesGos) {
  // Pure allocation question (no payments), so high demand is fine here.
  const std::vector<double> costs = true_costs();
  const std::vector<double> w = work_allocation(costs, 108.0);  // 60% load
  // Total work = demand; faster computers carry more.
  EXPECT_NEAR(std::accumulate(w.begin(), w.end(), 0.0), 108.0, 1e-9);
  EXPECT_GT(w[3], w[2]);
  EXPECT_GT(w[2], w[1]);
  EXPECT_GT(w[1], w[0]);
  EXPECT_GT(w[0], 0.0);
}

TEST(Mechanism, RejectsBadInputs) {
  const std::vector<double> costs = true_costs();
  EXPECT_THROW((void)work_allocation(std::vector<double>{}, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)work_allocation(std::vector<double>{0.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)work_allocation(costs, 180.0),  // = capacity
               std::invalid_argument);
  EXPECT_THROW((void)payment(costs, 70.0, 4), std::out_of_range);
  EXPECT_THROW((void)payment(costs, 70.0, 0, 1), std::invalid_argument);
}

TEST(Mechanism, WorkIsMonotoneNonIncreasingInOwnBid) {
  // The Archer–Tardos precondition: claiming to be slower never wins a
  // computer more work.
  const std::vector<double> costs = true_costs();
  const double phi = 70.0;
  for (std::size_t agent = 0; agent < costs.size(); ++agent) {
    double prev_work = std::numeric_limits<double>::infinity();
    for (double factor : {0.5, 0.8, 1.0, 1.5, 2.5, 5.0, 20.0}) {
      std::vector<double> bids = costs;
      bids[agent] *= factor;
      double cap = 0.0;
      for (double b : bids) cap += 1.0 / b;
      if (!(phi < cap)) continue;
      const double w = work_allocation(bids, phi)[agent];
      EXPECT_LE(w, prev_work + 1e-9)
          << "agent " << agent << " factor " << factor;
      prev_work = w;
    }
  }
}

TEST(Mechanism, PaymentCoversCost) {
  // Voluntary participation: truthful profit >= 0 for every computer.
  const std::vector<double> costs = true_costs();
  const double phi = 70.0;
  for (std::size_t agent = 0; agent < costs.size(); ++agent) {
    const AgentOutcome outcome = evaluate_agent(costs, phi, agent);
    EXPECT_GE(outcome.profit(costs[agent]), -1e-9) << "agent " << agent;
    EXPECT_GE(outcome.payment, costs[agent] * outcome.work - 1e-9);
  }
}

TEST(Mechanism, UnusedComputerEarnsNothing) {
  // At very low demand the slow computer gets no work — and the truthful
  // payment rule pays it nothing (no work at any higher bid either).
  const std::vector<double> costs = true_costs();
  const double phi = 5.0;
  const std::vector<double> w = work_allocation(costs, phi);
  ASSERT_DOUBLE_EQ(w[0], 0.0);
  const AgentOutcome outcome = evaluate_agent(costs, phi, 0);
  EXPECT_NEAR(outcome.payment, 0.0, 1e-9);
}

TEST(Mechanism, MonopolistIsRejected) {
  // If the other computers cannot carry the demand the rebate integral
  // diverges; the mechanism must refuse rather than pay infinity.
  const std::vector<double> costs{1.0 / 100.0, 1.0 / 5.0};
  const double phi = 50.0;  // only computer 0 can carry this
  EXPECT_THROW((void)payment(costs, phi, 0), std::invalid_argument);
}

class Truthfulness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Truthfulness, NoMisreportBeatsTruth) {
  const std::vector<double> costs = true_costs();
  const double phi = 70.0;
  const std::vector<double> factors{0.3,  0.5, 0.7, 0.9, 0.95, 1.05,
                                    1.1,  1.3, 1.7, 2.5, 4.0,  8.0};
  const double gain =
      best_misreport_gain(costs, phi, GetParam(), factors);
  // Numerically zero: quadrature + waterfill noise only.
  EXPECT_LE(gain, 1e-4) << "agent " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Agents, Truthfulness,
                         ::testing::Values(0u, 1u, 2u, 3u));

TEST(Mechanism, TruthfulnessHoldsAtOtherLoads) {
  const std::vector<double> costs = true_costs();
  const std::vector<double> factors{0.5, 0.8, 1.25, 2.0};
  for (double phi : {20.0, 45.0, 75.0}) {
    for (std::size_t agent = 0; agent < costs.size(); ++agent) {
      EXPECT_LE(best_misreport_gain(costs, phi, agent, factors), 1e-4)
          << "phi " << phi << " agent " << agent;
    }
  }
}

TEST(Mechanism, OverbiddingStrictlyHurtsActiveAgents) {
  // Wildly over-claiming cost prices the computer out and forfeits its
  // (positive) truthful profit.
  const std::vector<double> costs = true_costs();
  const double phi = 70.0;
  const AgentOutcome truthful = evaluate_agent(costs, phi, 3);
  std::vector<double> bids = costs;
  bids[3] *= 50.0;
  const AgentOutcome lied = evaluate_agent(bids, phi, 3);
  EXPECT_LT(lied.profit(costs[3]), truthful.profit(costs[3]) + 1e-9);
}

}  // namespace
}  // namespace nashlb::mechanism
