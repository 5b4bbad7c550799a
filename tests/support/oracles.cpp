#include "support/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/cost.hpp"
#include "mechanism/payments.hpp"
#include "util/contracts.hpp"

namespace nashlb::test_support {

using core::Instance;
using core::StrategyProfile;
using mechanism::evaluate_agent;

double kkt_residual(const Instance& inst, const StrategyProfile& s,
                    std::size_t user) {
  return kkt_residual(inst, s, user, s.loads(inst));
}

double kkt_residual(const Instance& inst, const StrategyProfile& s,
                    std::size_t user, std::span<const double> loads) {
  if (user >= inst.num_users()) {
    throw std::out_of_range("kkt_residual: user out of range");
  }
  if (loads.size() != inst.num_computers()) {
    throw std::invalid_argument("kkt_residual: loads size mismatch");
  }
  const std::span<const double> strategy = s.row(user);
  const double phi = inst.phi[user];
  std::vector<double> avail(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    avail[i] = inst.mu[i] - (loads[i] - strategy[i] * phi);
  }

  // Marginal cost of user flow at each computer.
  std::vector<double> g(avail.size());
  for (std::size_t i = 0; i < avail.size(); ++i) {
    const double slack = avail[i] - strategy[i] * phi;
    if (!(slack > 0.0)) return std::numeric_limits<double>::infinity();
    g[i] = avail[i] / (slack * slack);
  }

  // alpha: flow-weighted mean marginal on the support.
  double alpha = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (strategy[i] > 0.0) {
      alpha += strategy[i] * g[i];
      weight += strategy[i];
    }
  }
  if (weight == 0.0) {
    // No flow at all: vacuously stationary only if phi == 0, which the
    // instance forbids; report a unit residual.
    return 1.0;
  }
  alpha /= weight;
  // KKT multiplier: the flow-weighted marginal cost on the support is a
  // mean of strictly positive marginals g_i = mu^j_i / slack^2, so a
  // nonpositive alpha means the slack guard above was bypassed and the
  // normalized residual below would flip sign.
  NASHLB_ENSURE(alpha > 0.0, "user %zu: support marginal alpha=%.17g <= 0",
                user, alpha);

  double residual = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (strategy[i] > 0.0) {
      residual = std::max(residual, std::fabs(g[i] - alpha));
    } else {
      residual = std::max(residual, std::max(0.0, alpha - g[i]));
    }
  }
  return residual / alpha;
}

double best_random_deviation_gain(const Instance& inst,
                                  const StrategyProfile& s, std::size_t user,
                                  stats::Xoshiro256& rng, std::size_t trials,
                                  double step) {
  if (user >= inst.num_users()) {
    throw std::out_of_range("best_random_deviation_gain: user out of range");
  }
  const std::size_t n = inst.num_computers();
  const double base = core::user_response_time(inst, s, user);
  double best_gain = 0.0;

  for (std::size_t trial = 0; trial < trials; ++trial) {
    // Move a random amount of user traffic from one computer to another,
    // staying inside the simplex; reject moves that break stability.
    const auto from = static_cast<std::size_t>(rng.next_below(n));
    const auto to = static_cast<std::size_t>(rng.next_below(n));
    if (from == to) continue;
    const double movable = s.at(user, from);
    if (movable <= 0.0) continue;
    const double amount = std::min(movable, step * rng.next_double_open());

    StrategyProfile deviated = s;
    deviated.set(user, from, movable - amount);
    deviated.set(user, to, s.at(user, to) + amount);
    if (!deviated.is_feasible(inst, 1e-9)) continue;
    const double d = core::user_response_time(inst, deviated, user);
    best_gain = std::max(best_gain, base - d);
  }
  // A deviation "gain" is clamped at zero by construction; a negative
  // value would invert every epsilon-Nash certificate built on it.
  NASHLB_ENSURE(best_gain >= 0.0, "user %zu: negative deviation gain %.17g",
                user, best_gain);
  return best_gain;
}

double best_misreport_gain(std::span<const double> true_costs, double phi,
                           std::size_t agent,
                           std::span<const double> factors) {
  if (agent >= true_costs.size()) {
    throw std::out_of_range("best_misreport_gain: agent out of range");
  }
  // High quadrature resolution: the probe compares profits whose
  // difference is dominated by integration error otherwise.
  constexpr std::size_t kProbePoints = 8192;
  std::vector<double> bids(true_costs.begin(), true_costs.end());
  const double truthful_profit =
      evaluate_agent(bids, phi, agent, kProbePoints)
          .profit(true_costs[agent]);

  double best = 0.0;
  for (double factor : factors) {
    if (!(factor > 0.0)) {
      throw std::invalid_argument(
          "best_misreport_gain: factors must be > 0");
    }
    bids[agent] = true_costs[agent] * factor;
    // Skip bid vectors the mechanism would reject outright.
    double cap = 0.0;
    for (double b : bids) cap += 1.0 / b;
    if (!(phi < cap)) continue;
    const double profit = evaluate_agent(bids, phi, agent, kProbePoints)
                              .profit(true_costs[agent]);
    best = std::max(best, profit - truthful_profit);
  }
  return best;
}

StrategyProfile expand(const core::UserClassPartition& part,
                       const StrategyProfile& class_profile) {
  if (class_profile.num_users() != part.num_classes()) {
    throw std::invalid_argument("expand: one row per class expected");
  }
  StrategyProfile full(part.num_users(), class_profile.num_computers());
  for (std::size_t j = 0; j < part.num_users(); ++j) {
    full.set_row(j, class_profile.row(part.class_of(j)));
  }
  return full;
}

}  // namespace nashlb::test_support
