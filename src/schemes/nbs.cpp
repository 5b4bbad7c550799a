#include "schemes/nbs.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/cost.hpp"
#include "core/simplex.hpp"

namespace nashlb::schemes {
namespace {

/// sum_j ln D_j(s); +inf outside the stability region.
double objective(const core::Instance& inst, const core::StrategyProfile& s) {
  const std::vector<double> d = core::user_response_times(inst, s);
  double g = 0.0;
  for (double dj : d) {
    if (!std::isfinite(dj) || dj <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    g += std::log(dj);
  }
  return g;
}

/// Gradient of the objective w.r.t. every fraction s_ji.
/// dG/ds_ji = (1/D_j) F_i + phi_j F_i^2 sum_k (s_ki / D_k).
std::vector<double> gradient(const core::Instance& inst,
                             const core::StrategyProfile& s) {
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  const std::vector<double> f = core::computer_response_times(inst, s);
  const std::vector<double> d = core::user_response_times(inst, s);

  // w_i = sum_k s_ki / D_k, shared across users.
  std::vector<double> w(n, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      w[i] += s.at(k, i) / d[k];
    }
  }
  std::vector<double> grad(m * n);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      grad[j * n + i] = f[i] / d[j] + inst.phi[j] * f[i] * f[i] * w[i];
    }
  }
  return grad;
}

}  // namespace

core::StrategyProfile NbsScheme::solve(const core::Instance& inst) const {
  inst.validate();
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();

  // The proportional profile is strictly feasible for any valid instance —
  // a safe interior starting point.
  core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  double g = objective(inst, s);
  double step = 0.1;

  for (std::size_t iter = 1; iter <= max_iterations_; ++iter) {
    const std::vector<double> grad = gradient(inst, s);

    // Backtracking: shrink the step until the projected move both stays
    // strictly feasible and decreases the objective.
    bool advanced = false;
    for (int attempt = 0; attempt < 60; ++attempt) {
      core::StrategyProfile candidate = s;
      for (std::size_t j = 0; j < m; ++j) {
        std::vector<double> row(n);
        for (std::size_t i = 0; i < n; ++i) {
          row[i] = s.at(j, i) - step * grad[j * n + i];
        }
        candidate.set_row(j, core::project_to_simplex(row));
      }
      const double g_new = objective(inst, candidate);
      if (g_new < g) {
        const double moved = s.max_difference(candidate);
        s = std::move(candidate);
        g = g_new;
        advanced = true;
        // Gradient-mapping convergence test: negligible projected move at
        // a healthy step size means first-order stationarity.
        if (moved <= tolerance_ && step >= 1e-6) return s;
        step *= 1.5;  // reward success
        break;
      }
      step *= 0.5;
    }
    // No descent direction at the smallest step: numerically stationary.
    if (!advanced) return s;
  }
  throw std::runtime_error("NBS: projected gradient did not converge");
}

}  // namespace nashlb::schemes
