// Online (dynamic) load balancing — the paper's second future-work
// direction: "game theoretic models for dynamic load balancing".
//
// A closed-loop simulated system. Jobs flow through the M/M/1 farm while
// the users' strategies adapt *online*:
//
//   * the users' arrival rates follow a piecewise-constant schedule
//     (diurnal drift, flash crowds, ...) that the controller does NOT see;
//   * every `update_period` simulated seconds one user (round-robin, as
//     in the paper's ring) refreshes its strategy with a damped OPTIMAL
//     best reply — computed from *measured* quantities only: windowed
//     arrival-rate meters per computer (the growth rate of the run
//     queues — the practical reading of §2's "statistical estimation of
//     the run queue length"; crucially, arrival rates do not saturate
//     under overload the way busy fractions do, so an over-subscribed
//     computer actively repels flow) and the user's own dispatch counts
//     (local knowledge); the available-rate estimate is
//     mu_i - (lambda_hat_i - own_hat_i), clamped below by a small floor;
//   * response times are recorded in windows so the adaptation transient
//     is visible, not averaged away.
//
// The A12 bench compares this adaptive loop against a static profile
// frozen at the nominal load and against an oracle that re-solves the
// equilibrium exactly whenever the schedule changes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace nashlb::adaptive {

/// Piecewise-constant user arrival rates: segment k applies from
/// time[k] (inclusive) to time[k+1] (or the horizon for the last one).
struct RateSchedule {
  std::vector<double> start_times;           ///< ascending, first == 0
  std::vector<std::vector<double>> phi;      ///< one rate vector per segment

  /// The rate vector in force at time t.
  [[nodiscard]] const std::vector<double>& at(double t) const;

  /// Validates shape (non-empty, matching sizes, ascending times,
  /// positive rates); throws std::invalid_argument on violation.
  void validate() const;
};

/// Controller and measurement knobs.
struct OnlineOptions {
  double horizon = 2000.0;          ///< simulated seconds
  double update_period = 5.0;       ///< one user update every this often
  double window = 20.0;             ///< utilization measurement window
  double report_period = 50.0;      ///< response-time reporting window
  std::uint64_t seed = 0xD1CEULL;
  /// When false, the controller never runs: the initial profile stays
  /// frozen for the whole run (the "static" baseline of the A12 bench).
  bool adapt = true;
};

/// One reporting window's outcome.
struct WindowReport {
  double end_time = 0.0;
  double mean_response = 0.0;   ///< mean response of jobs completed in it
  std::uint64_t jobs = 0;
};

/// Whole-run outcome.
struct OnlineResult {
  std::vector<WindowReport> windows;
  double overall_mean_response = 0.0;  ///< over all post-window-0 jobs
  std::uint64_t jobs_completed = 0;
  core::StrategyProfile final_profile;
  std::uint64_t strategy_updates = 0;  ///< controller invocations
};

/// Runs the closed-loop simulation. `mu` are the computers' rates,
/// `schedule` the (hidden) user arrival-rate schedule, `initial` the
/// profile in force at t = 0. Requires every segment to satisfy
/// Phi < sum(mu) and the initial profile to be feasible for segment 0.
[[nodiscard]] OnlineResult simulate_online(const std::vector<double>& mu,
                                           const RateSchedule& schedule,
                                           const core::StrategyProfile& initial,
                                           const OnlineOptions& options = {});

}  // namespace nashlb::adaptive
