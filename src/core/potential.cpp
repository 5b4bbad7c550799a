#include "core/potential.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace nashlb::core {

double beckmann_potential(std::span<const double> lambda,
                          std::span<const double> mu) {
  if (lambda.size() != mu.size()) {
    throw std::invalid_argument("beckmann_potential: size mismatch");
  }
  double b = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    if (!(lambda[i] >= 0.0) || !(lambda[i] < mu[i])) {
      throw std::invalid_argument(
          "beckmann_potential: loads must satisfy 0 <= lambda < mu");
    }
    b += std::log(mu[i]) - std::log(mu[i] - lambda[i]);
  }
  // Each term log(mu_i / (mu_i - lambda_i)) is >= 0 for feasible loads
  // (0 <= lambda < mu), so the Beckmann potential is nonnegative — the
  // descent argument for best-reply convergence needs this floor.
  NASHLB_ENSURE(b >= 0.0, "negative potential %.17g on feasible loads", b);
  return b;
}

}  // namespace nashlb::core
