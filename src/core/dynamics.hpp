// Greedy best-reply dynamics — the computational core of the paper's NASH
// distributed load balancing algorithm (§3), in its in-memory form.
//
// Users update their strategies one at a time in round-robin order; each
// update is the OPTIMAL best reply against the current profile. The
// stopping rule follows the paper's ring protocol: one "iteration" is a
// full round of m updates; during round l the running norm accumulates
// |D_j^(l) - D_j^(l-1)| as each user j updates; the dynamics stops when a
// round's norm falls to the acceptance tolerance epsilon.
//
// Both initializations from §4.2.1 are provided: NASH_0 (empty strategies,
// every D_j^(0) = 0) and NASH_P (proportional allocation). A Jacobi
// (simultaneous-update) variant exists for the update-order ablation; it
// is *not* the paper's algorithm and may diverge, which the result
// reports honestly.
//
// Convergence of best-reply for M/M/1 costs and more than two users is an
// open problem (§3), so the dynamics carries an iteration cap and returns
// converged = false rather than looping forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "obs/convergence.hpp"

namespace nashlb::core {

class UserClassPartition;  // core/user_classes.hpp

/// Starting profile of the dynamics (§4.2.1).
enum class Initialization {
  Zero,          ///< NASH_0: all fractions zero, D_j^(0) taken as 0
  Proportional,  ///< NASH_P: s_ji = mu_i / sum_k mu_k
};

/// Who moves when.
enum class UpdateOrder {
  RoundRobin,     ///< Gauss–Seidel: user j sees users 1..j-1's round-l moves
  Simultaneous,   ///< Jacobi: everyone replies to the round-(l-1) profile
  RandomOrder,    ///< sequential updates in a fresh random permutation per
                  ///< round — models a ring without a fixed token order
};

/// Tuning knobs of the dynamics.
struct DynamicsOptions {
  Initialization init = Initialization::Proportional;
  UpdateOrder order = UpdateOrder::RoundRobin;
  /// Acceptance tolerance on the per-round response-time norm (seconds).
  double tolerance = 1e-4;
  /// Hard cap on rounds; exceeded => converged = false.
  std::size_t max_iterations = 1000;
  /// Seed for the RandomOrder permutations (ignored otherwise).
  std::uint64_t order_seed = 0x0badcafeULL;
  /// Worker threads for the Jacobi (Simultaneous) round: 1 = serial (the
  /// default; a one-worker pool is a plain loop), 0 = auto
  /// (NASHLB_THREADS env, else hardware concurrency — see
  /// util::resolve_threads), k > 1 = exactly k workers. Each worker
  /// replies from its own BestReplyWorkspace against the frozen
  /// round-(l-1) loads and writes only its own users' rows; the new
  /// profile and the convergence norm are then reduced in user order, so
  /// the result is bitwise independent of the thread count
  /// (Dynamics.JacobiIsBitwiseIdenticalAcrossThreadCounts in
  /// tests/concurrency/test_pooled_paths.cpp pins this). The sequential
  /// orders (RoundRobin, RandomOrder) are inherently ordered — user j's
  /// reply reads users 1..j-1's round-l moves — so threads > 1 with them
  /// is a contract violation (NASHLB_EXPECT aborts under
  /// -DNASHLB_CHECK=ON); unchecked builds ignore `threads` and run the
  /// sequential round.
  std::size_t threads = 1;
  /// Optional user-class aggregation (not owned, may be null; must
  /// outlive the call). When set, the dynamics runs over the partition's
  /// weighted classes instead of individual users: the aggregate loads
  /// carry the class weights W_k, each class's move commits the
  /// *symmetric within-class reply* (the row that is the representative
  /// member's best reply when its classmates play the same row — see
  /// class_reply_into in core/user_classes.hpp), and the stopping norm
  /// weights each class's response-time delta by its member count — so
  /// one round is O(classes · n) regardless of the population size m,
  /// and the tolerance keeps its per-user meaning. All three update orders and
  /// `threads` compose as usual. The returned DynamicsResult is
  /// class-level: `profile` has num_classes rows (user j plays the row of
  /// class_of(j); certify the equilibrium error of that per-user profile
  /// with certify_eps_nash) and `user_times` holds the
  /// per-class representative response times. With the `singletons`
  /// partition the run is bitwise identical to the per-user solver. See
  /// docs/SCALING.md.
  const UserClassPartition* classes = nullptr;
  /// Optional convergence probe (not owned, may be null): one row per
  /// round under the `convergence_trace_columns()` schema — stopping
  /// norm, eps-Nash gap, potential, overall cost, active-set churn and
  /// utilization spread. The gap is an O(m·n log n) certificate computed
  /// every round, so leave the probe null on timed runs. Works in all
  /// three orders and in class mode (rows are then class-level). See
  /// RoundRecorder and docs/OBSERVABILITY.md.
  obs::ConvergenceProbe* probe = nullptr;
};

/// Outcome of a run of the dynamics.
struct DynamicsResult {
  StrategyProfile profile;       ///< final profile (the equilibrium if converged)
  bool converged = false;        ///< norm <= tolerance within the cap
  bool diverged = false;         ///< an intermediate state became infeasible
                                 ///< (possible only under Simultaneous)
  std::size_t iterations = 0;    ///< rounds executed
  /// norm after each round: norm_history[l-1] = sum_j |D_j^(l)-D_j^(l-1)|.
  std::vector<double> norm_history;
  /// Per-user expected response times at the final profile.
  std::vector<double> user_times;
};

/// The one way a solver records a round. The in-memory dynamics (all
/// orders, class mode) and the distributed ring protocol each call
/// end_round once per completed round; the recorder turns each call
/// into an obs::ConvergenceProbe row. The probe may be null, and it is
/// ignored when the obs layer is compiled out, so a recorder without a
/// probe costs one pointer test per round. How a run ended is on the
/// solver's result (DynamicsResult, distributed::RingResult).
class RoundRecorder {
 public:
  /// `start` is the profile the solver begins from (class-level in class
  /// mode); its supports seed the churn baseline, so round 1's churn
  /// counts movers relative to the initialization.
  RoundRecorder(obs::ConvergenceProbe* probe, const Instance& inst,
                const StrategyProfile& start);

  /// Records a completed round: the probe row derived from `s` and its
  /// per-computer arrival rates `loads` (e.g. LoadState::loads()). The
  /// row's eps-Nash gap is NaN when the profile is infeasible (a
  /// diverged Jacobi round).
  void end_round(const Instance& inst, const StrategyProfile& s,
                 std::span<const double> loads, std::size_t round,
                 double norm);

 private:
  obs::ConvergenceProbe* probe_;
  std::vector<char> prev_support_;  // m*n row-major support bits
};

/// Runs the dynamics from the configured initialization.
[[nodiscard]] DynamicsResult best_reply_dynamics(
    const Instance& inst, const DynamicsOptions& options = {});

/// Runs the dynamics from an explicit starting profile (the `init` option
/// is ignored). `start` must have the instance's dimensions.
[[nodiscard]] DynamicsResult best_reply_dynamics_from(
    const Instance& inst, const StrategyProfile& start,
    const DynamicsOptions& options = {});

}  // namespace nashlb::core
