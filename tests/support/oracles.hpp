// Independent references the tests check the library against. None of
// them is on a production path: the solvers certify their results with
// the best-reply gap (core/equilibrium.hpp) and the eps-Nash certificate
// (core/user_classes.hpp); these are second opinions.
//   * kkt_residual: the first-order conditions of the appendix proof —
//     marginal costs equal on each user's support, no smaller off it;
//   * best_random_deviation_gain: random feasible perturbations of one
//     user's strategy never reduce its response time (a falsifier);
//   * best_misreport_gain: no multiplicative misreport beats truth under
//     the Archer–Tardos payments (mechanism/payments.hpp);
//   * expand: a class-level profile written out per user.
#pragma once

#include <cstddef>
#include <span>

#include "core/types.hpp"
#include "core/user_classes.hpp"
#include "stats/rng.hpp"

namespace nashlb::test_support {

/// First-order (KKT) residual of user `user` at profile `s`, normalized by
/// the user's smallest marginal cost. The marginal cost of pushing flow to
/// computer i is g_i = mu^j_i / (mu^j_i - s_ji phi_j)^2; at the user's
/// optimum g_i = alpha on its support and g_i >= alpha off it. Returns
///   max( max_support |g_i - alpha| , max_off max(0, alpha - g_i) ) / alpha
/// with alpha the flow-weighted mean of support marginals. Zero (up to
/// rounding) certifies the appendix's optimality conditions.
[[nodiscard]] double kkt_residual(const core::Instance& inst,
                                  const core::StrategyProfile& s,
                                  std::size_t user);

/// As above, with the aggregate loads precomputed — O(n) per user.
[[nodiscard]] double kkt_residual(const core::Instance& inst,
                                  const core::StrategyProfile& s,
                                  std::size_t user,
                                  std::span<const double> loads);

/// Probes `trials` random feasible deviations of `user`'s strategy (moving
/// up to `step` of its traffic between computer pairs) and returns the best
/// improvement found (positive = the profile is NOT an equilibrium for this
/// user).
[[nodiscard]] double best_random_deviation_gain(const core::Instance& inst,
                                                const core::StrategyProfile& s,
                                                std::size_t user,
                                                stats::Xoshiro256& rng,
                                                std::size_t trials = 100,
                                                double step = 0.05);

/// Truthfulness probe: the agent's best profit over a multiplicative
/// misreport grid, relative to its truthful profit. A (numerically)
/// truthful mechanism returns <= ~0. `factors` are multipliers applied to
/// the true cost.
[[nodiscard]] double best_misreport_gain(std::span<const double> true_costs,
                                         double phi, std::size_t agent,
                                         std::span<const double> factors);

/// The full per-user profile of a class-level one: user j plays the row
/// of class `part.class_of(j)`. O(m·n) memory.
[[nodiscard]] core::StrategyProfile expand(
    const core::UserClassPartition& part,
    const core::StrategyProfile& class_profile);

}  // namespace nashlb::test_support
