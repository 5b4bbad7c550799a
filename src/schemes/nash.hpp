// NASH scheme — the paper's contribution, packaged behind the common
// Scheme interface: run greedy best-reply dynamics (§3) to the Nash
// equilibrium and return the equilibrium profile.
//
// The two published variants differ only in initialization (§4.2.1):
// NASH_0 starts from empty strategies, NASH_P from the proportional
// allocation (which "is close to the equilibrium point", cutting the
// iteration count by more than half — Figure 2).
#pragma once

#include "core/dynamics.hpp"
#include "schemes/scheme.hpp"

namespace nashlb::schemes {

class NashScheme final : public Scheme {
 public:
  /// `init` selects NASH_0 vs NASH_P; `tolerance` is the acceptance
  /// tolerance epsilon of the distributed algorithm.
  explicit NashScheme(
      core::Initialization init = core::Initialization::Proportional,
      double tolerance = 1e-4, std::size_t max_iterations = 1000)
      : init_(init), tolerance_(tolerance), max_iterations_(max_iterations) {}

  [[nodiscard]] std::string name() const override {
    return init_ == core::Initialization::Zero ? "NASH_0" : "NASH_P";
  }

  /// Runs the dynamics to convergence. Throws std::runtime_error if the
  /// dynamics fails to converge within the iteration cap (never observed
  /// for feasible instances; see §3 on the open convergence question).
  [[nodiscard]] core::StrategyProfile solve(
      const core::Instance& inst) const override;

  /// Like solve() but returns the full dynamics trace (iteration count,
  /// norm history) for the convergence benches.
  [[nodiscard]] core::DynamicsResult solve_with_trace(
      const core::Instance& inst) const;

 private:
  core::Initialization init_;
  double tolerance_;
  std::size_t max_iterations_;
};

}  // namespace nashlb::schemes
