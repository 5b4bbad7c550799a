#include "core/cost.hpp"

#include <stdexcept>

#include "util/contracts.hpp"

namespace nashlb::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<double> computer_response_times(const Instance& inst,
                                            const StrategyProfile& s) {
  const std::vector<double> lambda = s.loads(inst);
  std::vector<double> f(lambda.size());
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    const double slack = inst.mu[i] - lambda[i];
    f[i] = slack > 0.0 ? 1.0 / slack : kInf;
    // Equation (1): an M/M/1 response time is positive whenever it is
    // defined; a nonpositive F_i means mu or lambda went negative
    // upstream, which every downstream cost average would silently
    // absorb.
    NASHLB_ENSURE(f[i] > 0.0, "computer %zu: F_i=%.17g <= 0 (mu=%.17g, "
                  "lambda=%.17g)", i, f[i], inst.mu[i], lambda[i]);
  }
  return f;
}

std::vector<double> user_response_times(const Instance& inst,
                                        const StrategyProfile& s) {
  const std::vector<double> f = computer_response_times(inst, s);
  std::vector<double> d(s.num_users(), 0.0);
  for (std::size_t j = 0; j < s.num_users(); ++j) {
    const std::span<const double> strategy = s.row(j);
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (strategy[i] > 0.0) {
        if (f[i] == kInf) {
          d[j] = kInf;
          break;
        }
        d[j] += strategy[i] * f[i];
      }
    }
  }
  return d;
}

double overall_response_time(const Instance& inst, const StrategyProfile& s) {
  const std::vector<double> d = user_response_times(inst, s);
  const double phi_total = inst.total_arrival_rate();
  double acc = 0.0;
  for (std::size_t j = 0; j < d.size(); ++j) {
    if (d[j] == kInf) return kInf;
    acc += inst.phi[j] * d[j];
  }
  return acc / phi_total;
}

double overall_response_time_from_loads(std::span<const double> lambda,
                                        std::span<const double> mu) {
  if (lambda.size() != mu.size()) {
    throw std::invalid_argument(
        "overall_response_time_from_loads: size mismatch");
  }
  double total_rate = 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    total_rate += lambda[i];
    if (lambda[i] > 0.0) {
      const double slack = mu[i] - lambda[i];
      if (!(slack > 0.0)) return kInf;
      acc += lambda[i] / slack;
    }
  }
  if (total_rate == 0.0) return 0.0;
  // Sum of lambda_i/(mu_i - lambda_i) terms with lambda_i > 0 and
  // positive slack: a negative accumulator means a load or rate was
  // negative, which the averaged figure-4/6 numbers would hide.
  NASHLB_ENSURE(acc >= 0.0, "negative response-time mass %.17g", acc);
  return acc / total_rate;
}

}  // namespace nashlb::core
