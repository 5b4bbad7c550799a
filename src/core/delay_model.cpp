#include "core/delay_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nashlb::core {

namespace {

/// Erlang-C: probability an arriving job waits in an M/M/c queue with
/// offered load a = lambda / mu_core and c servers. Requires a < c.
double erlang_c(unsigned servers, double offered_load) {
  if (servers == 0) {
    throw std::invalid_argument("erlang_c: need at least one server");
  }
  const double a = offered_load;
  const double c = static_cast<double>(servers);
  if (!(a >= 0.0) || !(a < c)) {
    throw std::invalid_argument("erlang_c: need 0 <= offered load < c");
  }
  if (a == 0.0) return 0.0;

  // Recurrence on the Erlang-B blocking probability (numerically stable):
  // B(0, a) = 1; B(k, a) = a B(k-1, a) / (k + a B(k-1, a)).
  double b = 1.0;
  for (unsigned k = 1; k <= servers; ++k) {
    b = a * b / (static_cast<double>(k) + a * b);
  }
  // Erlang-C from Erlang-B: C = B / (1 - rho (1 - B)), rho = a / c.
  const double rho = a / c;
  return b / (1.0 - rho * (1.0 - b));
}

}  // namespace

MM1Delay::MM1Delay(double mu) : mu_(mu) {
  if (!(mu > 0.0) || !std::isfinite(mu)) {
    throw std::invalid_argument("MM1Delay: mu must be finite and > 0");
  }
}

double MM1Delay::response_time(double lambda) const {
  if (!(lambda >= 0.0) || !(lambda < mu_)) {
    throw std::invalid_argument("MM1Delay: load out of [0, mu)");
  }
  return 1.0 / (mu_ - lambda);
}

double MM1Delay::response_time_derivative(double lambda) const {
  const double slack = mu_ - lambda;
  if (!(lambda >= 0.0) || !(slack > 0.0)) {
    throw std::invalid_argument("MM1Delay: load out of [0, mu)");
  }
  return 1.0 / (slack * slack);
}

MMCDelay::MMCDelay(double mu_core, unsigned servers)
    : mu_(mu_core), c_(servers) {
  if (c_ == 0 || !(mu_core > 0.0) || !std::isfinite(mu_core)) {
    throw std::invalid_argument("MMCDelay: need servers >= 1 and mu > 0");
  }
}

double MMCDelay::capacity() const {
  return mu_ * static_cast<double>(c_);
}

double MMCDelay::response_time(double lambda) const {
  if (!(lambda >= 0.0) || !(lambda < capacity())) {
    throw std::invalid_argument("MMCDelay: load out of [0, capacity)");
  }
  // Mean wait in queue, C(c, a) / (c mu - lambda), plus one service.
  const double wait =
      lambda == 0.0 ? 0.0
                    : erlang_c(c_, lambda / mu_) /
                          (static_cast<double>(c_) * mu_ - lambda);
  return wait + 1.0 / mu_;
}

double MMCDelay::response_time_derivative(double lambda) const {
  const double cap = capacity();
  if (!(lambda >= 0.0) || !(lambda < cap)) {
    throw std::invalid_argument("MMCDelay: load out of [0, capacity)");
  }
  // Central difference with a step scaled to the remaining slack so the
  // stencil never leaves the stability region.
  const double h = std::min(1e-6 * cap, 0.49 * (cap - lambda));
  if (h <= 0.0) {
    throw std::invalid_argument("MMCDelay: load too close to capacity");
  }
  const double lo = std::max(0.0, lambda - h);
  const double hi = lambda + h;
  return (response_time(hi) - response_time(lo)) / (hi - lo);
}

std::vector<DelayModelPtr> mm1_models(const std::vector<double>& mu) {
  std::vector<DelayModelPtr> models;
  models.reserve(mu.size());
  for (double m : mu) models.push_back(std::make_shared<MM1Delay>(m));
  return models;
}

}  // namespace nashlb::core
