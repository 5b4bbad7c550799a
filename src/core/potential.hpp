// The Beckmann potential. The Wardrop equilibrium (IOS) is its minimizer:
//   B(lambda) = sum_i integral_0^{lambda_i} F_i(x) dx
//             = sum_i [ ln(mu_i) - ln(mu_i - lambda_i) ]  for M/M/1 delays
// — the classical route to existence/uniqueness, and a property the tests
// exercise against waterfill_linear.
#pragma once

#include <span>

namespace nashlb::core {

/// Beckmann potential of aggregate loads on M/M/1 computers:
/// sum_i [ln(mu_i) - ln(mu_i - lambda_i)]. Requires 0 <= lambda_i < mu_i;
/// throws std::invalid_argument otherwise.
[[nodiscard]] double beckmann_potential(std::span<const double> lambda,
                                        std::span<const double> mu);

}  // namespace nashlb::core
