// Nash equilibrium verification (Definition 2.1): the best-reply gap —
// no user's unique best reply improves on its current strategy (the
// definition, checked constructively).
#pragma once

#include <span>

#include "core/types.hpp"

namespace nashlb::core {

/// Largest absolute best-reply improvement over all users:
/// max_j [ D_j(s) - D_j(best_reply_j, s_-j) ]. Zero at a Nash equilibrium.
[[nodiscard]] double max_best_reply_gain(const Instance& inst,
                                         const StrategyProfile& s);

/// As above, with the aggregate loads lambda precomputed (e.g. carried by
/// a LoadState): O(m·n log n) for the full certificate instead of
/// O(m²·n). `loads` must equal sum_j s_ji phi_j.
[[nodiscard]] double max_best_reply_gain(const Instance& inst,
                                         const StrategyProfile& s,
                                         std::span<const double> loads);

/// True iff no user can improve its expected response time by more than
/// `tolerance` seconds by unilateral deviation.
[[nodiscard]] bool is_nash_equilibrium(const Instance& inst,
                                       const StrategyProfile& s,
                                       double tolerance = 1e-6);

}  // namespace nashlb::core
