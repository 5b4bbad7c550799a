// The game's cost model: M/M/1 expected response times under a profile.
//
// Equation (1): F_i(s) = 1 / (mu_i - sum_j s_ji phi_j)
// Equation (2): D_j(s) = sum_i s_ji F_i(s)  — user j's expected response
// time, the quantity each selfish user minimizes.
// The "overall expected response time" reported in the figures is the
// job-weighted average D(s) = (1/Phi) sum_j phi_j D_j(s), i.e. the mean
// response time over all jobs in the system.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace nashlb::core {

/// Expected response time at every computer: F_i(s). Unstable computers
/// (lambda_i >= mu_i) report +infinity rather than a negative time.
[[nodiscard]] std::vector<double> computer_response_times(
    const Instance& inst, const StrategyProfile& s);

/// All users' expected response times (D_1 .. D_m). D_j is +infinity
/// if any computer that user j actually uses (s_ji > 0) is unstable.
[[nodiscard]] std::vector<double> user_response_times(
    const Instance& inst, const StrategyProfile& s);

/// Overall expected response time D(s) = (1/Phi) sum_j phi_j D_j(s) —
/// the objective the GOS scheme minimizes and the y-axis of Figures 4/6.
[[nodiscard]] double overall_response_time(const Instance& inst,
                                           const StrategyProfile& s);

/// Overall expected response time induced by aggregate computer loads
/// alone: (1/Phi) sum_i lambda_i / (mu_i - lambda_i). Equal to
/// `overall_response_time` for any profile with these loads.
[[nodiscard]] double overall_response_time_from_loads(
    std::span<const double> lambda, std::span<const double> mu);

}  // namespace nashlb::core
