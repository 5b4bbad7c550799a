#include "core/equilibrium.hpp"

#include <algorithm>

#include "core/best_reply.hpp"

namespace nashlb::core {

double max_best_reply_gain(const Instance& inst, const StrategyProfile& s) {
  return max_best_reply_gain(inst, s, s.loads(inst));
}

double max_best_reply_gain(const Instance& inst, const StrategyProfile& s,
                           std::span<const double> loads) {
  double worst = 0.0;
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    worst = std::max(worst, best_reply_gain(inst, s, j, loads));
  }
  return worst;
}

bool is_nash_equilibrium(const Instance& inst, const StrategyProfile& s,
                         double tolerance) {
  if (!s.is_feasible(inst, 1e-7)) return false;
  return max_best_reply_gain(inst, s) <= tolerance;
}

}  // namespace nashlb::core
