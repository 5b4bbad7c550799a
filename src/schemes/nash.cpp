#include "schemes/nash.hpp"

#include <stdexcept>

namespace nashlb::schemes {

core::DynamicsResult NashScheme::solve_with_trace(
    const core::Instance& inst) const {
  core::DynamicsOptions opts;
  opts.init = init_;
  opts.tolerance = tolerance_;
  opts.max_iterations = max_iterations_;
  return core::best_reply_dynamics(inst, opts);
}

core::StrategyProfile NashScheme::solve(const core::Instance& inst) const {
  core::DynamicsResult res = solve_with_trace(inst);
  if (!res.converged) {
    throw std::runtime_error(
        name() + ": best-reply dynamics did not converge within " +
        std::to_string(max_iterations_) + " iterations");
  }
  return std::move(res.profile);
}

}  // namespace nashlb::schemes
