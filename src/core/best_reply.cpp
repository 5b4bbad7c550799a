#include "core/best_reply.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/cost.hpp"
#include "core/waterfill.hpp"
#include "util/contracts.hpp"

namespace nashlb::core {
namespace {

void check_phi(double phi) {
  if (!(phi > 0.0) || !std::isfinite(phi)) {
    throw std::invalid_argument(
        "optimal_fractions: phi must be finite and > 0");
  }
}

void check_available(std::span<const double> avail) {
  for (std::size_t i = 0; i < avail.size(); ++i) {
    if (!(avail[i] > 0.0)) {
      throw std::invalid_argument(
          "best_reply: other users overload computer " + std::to_string(i));
    }
  }
}

}  // namespace

std::vector<double> optimal_fractions(std::span<const double> available_rates,
                                      double phi) {
  check_phi(phi);
  const WaterfillResult wf = waterfill_sqrt(available_rates, phi);
  std::vector<double> fractions(wf.lambda.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    fractions[i] = wf.lambda[i] / phi;
  }
  return fractions;
}

void optimal_fractions_into(std::span<const double> available_rates,
                            double phi, std::span<double> out,
                            WaterfillWorkspace& ws) {
  check_phi(phi);
  static_cast<void>(waterfill_sqrt_into(available_rates, phi, out, ws));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] /= phi;
  }
#if NASHLB_CHECK_ENABLED
  // The reply the dynamics commits must be a strategy, i.e. a point of
  // the probability simplex (paper constraint sum_i s_ji = 1, s_ji >= 0).
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    NASHLB_ENSURE(out[i] >= 0.0 && out[i] <= 1.0 + 1e-12,
                  "reply fraction out[%zu]=%.17g outside [0, 1]", i, out[i]);
    sum += out[i];
  }
  NASHLB_ENSURE(std::fabs(sum - 1.0) <= 1e-9 * static_cast<double>(out.size() + 1),
                "reply fractions sum to %.17g, not 1", sum);
#endif
}

std::span<const double> best_reply_into(const Instance& inst,
                                        const StrategyProfile& s,
                                        const LoadState& state,
                                        std::size_t user,
                                        BestReplyWorkspace& ws) {
  if (user >= inst.num_users()) {
    throw std::out_of_range("best_reply: user out of range");
  }
  return best_reply_into(inst, s, state, user, inst.phi[user], ws);
}

std::span<const double> best_reply_into(const Instance& inst,
                                        const StrategyProfile& s,
                                        const LoadState& state,
                                        std::size_t user, double demand,
                                        BestReplyWorkspace& ws) {
  if (user >= inst.num_users()) {
    throw std::out_of_range("best_reply: user out of range");
  }
  ws.resize(inst.num_computers());
  state.available_rates(s, user, demand, ws.avail);
  check_available(ws.avail);
  optimal_fractions_into(ws.avail, demand, ws.reply, ws.waterfill);
  return {ws.reply.data(), ws.reply.size()};
}

double best_reply_gain(const Instance& inst, const StrategyProfile& s,
                       std::size_t user, std::span<const double> loads) {
  if (user >= inst.num_users()) {
    throw std::out_of_range("best_reply_gain: user out of range");
  }
  if (loads.size() != inst.num_computers()) {
    throw std::invalid_argument("best_reply_gain: loads size mismatch");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::span<const double> strategy = s.row(user);
  const double phi = inst.phi[user];

  std::vector<double> avail(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    avail[i] = inst.mu[i] - (loads[i] - strategy[i] * phi);
  }
  check_available(avail);

  // Current D_j directly from the loads (no profile copy): the slack the
  // user sees at computer i is mu_i - lambda_i = mu^j_i - s_ji phi_j.
  double current = 0.0;
  for (std::size_t i = 0; i < avail.size(); ++i) {
    if (strategy[i] > 0.0) {
      const double slack = inst.mu[i] - loads[i];
      if (!(slack > 0.0)) {
        current = kInf;
        break;
      }
      current += strategy[i] * (1.0 / slack);
    }
  }

  const std::vector<double> reply = optimal_fractions(avail, phi);
  double best = 0.0;
  for (std::size_t i = 0; i < reply.size(); ++i) {
    if (reply[i] > 0.0) {
      best += reply[i] / (avail[i] - reply[i] * phi);
    }
  }
  return current - best;
}

double best_reply_gain(const Instance& inst, const StrategyProfile& s,
                       std::size_t user) {
  return best_reply_gain(inst, s, user, s.loads(inst));
}

}  // namespace nashlb::core
