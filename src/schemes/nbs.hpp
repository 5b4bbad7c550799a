// NBS — cooperative Nash Bargaining extension (paper §5 "future work";
// companion APDCM'02 paper "Load Balancing in Distributed Systems: An
// Approach Using Cooperative Games").
//
// Instead of competing, the users jointly agree on the profile maximizing
// the Nash product of their utilities. With utility 1/D_j and the
// disagreement point at zero utility, the bargaining solution maximizes
// prod_j (1/D_j), i.e. minimizes G(s) = sum_j ln D_j(s) — the
// proportional-fairness allocation. G is smooth on the interior of the
// feasible region, so we solve it with projected gradient descent over
// the product of per-user simplices, with backtracking line search to
// stay inside the stability region.
#pragma once

#include <cstddef>

#include "schemes/scheme.hpp"

namespace nashlb::schemes {

class NbsScheme final : public Scheme {
 public:
  explicit NbsScheme(double tolerance = 1e-8,
                     std::size_t max_iterations = 20000)
      : tolerance_(tolerance), max_iterations_(max_iterations) {}

  [[nodiscard]] std::string name() const override { return "NBS"; }

  /// Throws std::runtime_error when the projected gradient has not
  /// converged within `max_iterations` steps.
  [[nodiscard]] core::StrategyProfile solve(
      const core::Instance& inst) const override;

 private:
  double tolerance_;
  std::size_t max_iterations_;
};

}  // namespace nashlb::schemes
