#include "core/dynamics.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/equilibrium.hpp"
#include "core/load_state.hpp"
#include "core/potential.hpp"
#include "core/user_classes.hpp"
#include "stats/rng.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace nashlb::core {

RoundRecorder::RoundRecorder(obs::ConvergenceProbe* probe,
                             const Instance& inst,
                             const StrategyProfile& start)
    : probe_(obs::kEnabled ? probe : nullptr) {
  NASHLB_EXPECT(start.num_users() == inst.num_users() &&
                    start.num_computers() == inst.num_computers(),
                "round recorder start profile is %zux%zu, instance %zux%zu",
                start.num_users(), start.num_computers(), inst.num_users(),
                inst.num_computers());
  if (probe_ == nullptr) return;
  const std::size_t m = start.num_users();
  const std::size_t n = inst.num_computers();
  prev_support_.assign(m * n, 0);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      prev_support_[j * n + i] = start.at(j, i) > 0.0 ? 1 : 0;
    }
  }
}

void RoundRecorder::end_round(const Instance& inst, const StrategyProfile& s,
                              std::span<const double> loads,
                              std::size_t round, double norm) {
  if (probe_ == nullptr) return;
  NASHLB_EXPECT(loads.size() == inst.num_computers() &&
                    prev_support_.size() ==
                        s.num_users() * s.num_computers(),
                "recorded round %zu: %zu loads / %zux%zu profile against "
                "the recorder's %zu support bits",
                round, loads.size(), s.num_users(), s.num_computers(),
                prev_support_.size());
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  double gap = kNaN;
  try {
    gap = max_best_reply_gain(inst, s, loads);
  } catch (const std::exception&) {
    // infeasible intermediate profile (Jacobi divergence): leave NaN
  }
  double potential = kNaN;
  try {
    potential = beckmann_potential(loads, inst.mu);
  } catch (const std::exception&) {
    // an overloaded computer has no potential value: leave NaN
  }
  const double overall = overall_response_time_from_loads(loads, inst.mu);
  const std::size_t m = s.num_users();
  const std::size_t n = s.num_computers();
  std::int64_t churn = 0;
  for (std::size_t j = 0; j < m; ++j) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const char on = s.at(j, i) > 0.0 ? 1 : 0;
      if (on != prev_support_[j * n + i]) changed = true;
      prev_support_[j * n + i] = on;
    }
    if (changed) ++churn;
  }
  double min_util = std::numeric_limits<double>::infinity();
  double max_util = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double util = loads[i] / inst.mu[i];
    min_util = std::min(min_util, util);
    max_util = std::max(max_util, util);
  }
  probe_->record_round(static_cast<std::int64_t>(round), norm, gap, potential,
                       overall, churn, max_util - min_util);
}

namespace {

/// True if every computer still has spare capacity for `user` to target.
/// `demand` is the mover's full contribution to the loads — the user's
/// phi_j, or the class weight W_k in class mode (the symmetric class
/// reply needs every rate free of the whole class to be positive).
bool replies_computable(const LoadState& state, const StrategyProfile& s,
                        std::size_t user, double demand,
                        std::span<double> scratch) {
  state.available_rates(s, user, demand, scratch);
  for (double a : scratch) {
    if (!(a > 0.0)) return false;
  }
  return true;
}

/// The dynamics loop, shared by the per-user and class-aggregated modes.
/// In class mode (`classes` non-null) `inst` is the partition's
/// aggregated instance — phi carries the class weights W_k, so the
/// LoadState accumulates correct expanded loads — each move commits the
/// symmetric within-class reply (class_reply_into; singleton classes
/// reduce to the representative-demand waterfill bitwise), and the norm
/// weights each class delta by its member count. Per-user mode passes
/// classes = nullptr; its demand span is inst.phi and its norm weights
/// are 1, which keeps the arithmetic bitwise identical to the
/// pre-aggregation code path (and to a singleton-class run).
DynamicsResult run(const Instance& inst, StrategyProfile profile,
                   std::vector<double> last_times,
                   const DynamicsOptions& options,
                   const UserClassPartition* classes) {
  // Stability (assumption A2): best replies only exist while the total
  // demand leaves spare capacity. inst.validate() enforces this with an
  // exception at the API boundary; the contract re-states it here where
  // the iteration actually depends on it.
  NASHLB_EXPECT(inst.total_arrival_rate() < inst.total_capacity(),
                "Phi=%.17g >= sum mu=%.17g: no feasible profile exists",
                inst.total_arrival_rate(), inst.total_capacity());
  const std::size_t m = inst.num_users();
  const bool class_mode = classes != nullptr;
  // Reply demand per mover: the representative demand in class mode, the
  // user's own phi otherwise. Norm weights (member counts) only exist in
  // class mode; the per-user path multiplies by the exact 1.0, which is
  // a bitwise no-op.
  const std::span<const double> reply_phi =
      class_mode ? classes->rep_phi() : std::span<const double>(inst.phi);
  const std::span<const double> norm_weight =
      class_mode ? classes->member_counts() : std::span<const double>();
  DynamicsResult result{std::move(profile), false, false, 0, {}, {}};
  stats::Xoshiro256 order_rng(options.order_seed);
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  RoundRecorder recorder(options.probe, inst, result.profile);

  // The incremental core: the aggregate loads ride along with the profile
  // and every per-move quantity (available rates, D_j) derives from them
  // in O(n), so a full round is O(m·n) instead of O(m²·n). The loads are
  // rebuilt from the profile at each round boundary — the rebuild is the
  // same O(m·n) as the round's own updates, and it resets the few-ulp
  // drift the incremental updates accumulate.
  LoadState state(inst, result.profile);
  BestReplyWorkspace ws;
  ws.resize(inst.num_computers());

  const bool sequential = options.order == UpdateOrder::RoundRobin ||
                          options.order == UpdateOrder::RandomOrder;
  // Parallel execution is a Jacobi-only option: a sequential order is
  // *defined* by user j reading users 1..j-1's round-l moves, so running
  // it on a pool would silently compute a different (Jacobi-ish) round.
  // The contract catches the misconfiguration in checked builds; unchecked
  // builds ignore `threads` and stay on the correct sequential path.
  const std::size_t threads =
      options.threads == 1 ? 1 : util::resolve_threads(options.threads);
  NASHLB_EXPECT(threads <= 1 || !sequential,
                "DynamicsOptions::threads=%zu with a sequential update "
                "order: only UpdateOrder::Simultaneous (Jacobi) rounds are "
                "order-free; use threads=1 for RoundRobin/RandomOrder",
                threads);
  // Jacobi-only state: every Jacobi round runs on the pool (one worker
  // is a plain loop), each worker replying from its own workspace.
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<BestReplyWorkspace> worker_ws;
  std::vector<double> round_times;     // D_j^(l) per user
  std::vector<char> round_computable;  // replies_computable per user
  if (!sequential) {
    pool = std::make_unique<util::ThreadPool>(threads);
    worker_ws.resize(pool->size());
    for (BestReplyWorkspace& w : worker_ws) w.resize(inst.num_computers());
    round_times.resize(m);
    round_computable.assign(m, 1);
  }

  // The stopping norm, folded in move order: mover j adds its weighted
  // |D_j^(l) - D_j^(l-1)|. The fold order fixes the norm's bits.
  double norm = 0.0;
  const auto fold_norm = [&](std::size_t j, double d) {
    norm += (class_mode ? norm_weight[j] : 1.0) * std::fabs(d - last_times[j]);
    last_times[j] = d;
  };
  for (std::size_t round = 1; round <= options.max_iterations; ++round) {
    if (round > 1 && sequential) state.rebuild(result.profile);
    norm = 0.0;
    bool ok = true;
    if (sequential) {
      if (options.order == UpdateOrder::RandomOrder) {
        // Fisher–Yates with the dynamics' own RNG: deterministic per seed.
        for (std::size_t k = m; k > 1; --k) {
          std::swap(order[k - 1],
                    order[static_cast<std::size_t>(order_rng.next_below(k))]);
        }
      }
      for (std::size_t idx = 0; idx < m; ++idx) {
        const std::size_t j = order[idx];
        const std::span<const double> reply =
            class_mode
                ? class_reply_into(inst, result.profile, state, j, *classes,
                                   ws)
                : best_reply_into(inst, result.profile, state, j, reply_phi[j],
                                  ws);
        state.commit_row(result.profile, j, reply);
        fold_norm(j, state.user_response_time(result.profile, j));
      }
    } else {
      // Jacobi: all replies against the round-(l-1) profile. The state's
      // loads stay frozen while the rows are overwritten — each user's
      // available rates need only the frozen loads and its own not-yet-
      // replaced row, so no copy of the profile is made. This is also
      // why the round parallelizes exactly: user j reads only the frozen
      // loads and row j, and writes only row j, so the pooled loop
      // touches disjoint rows and each reply is bit-identical to its
      // serial counterpart regardless of scheduling.
      pool->parallel_for(0, m, 1, [&](std::size_t j, std::size_t w) {
        result.profile.set_row(
            j, class_mode ? class_reply_into(inst, result.profile, state, j,
                                             *classes, worker_ws[w])
                          : best_reply_into(inst, result.profile, state, j,
                                            reply_phi[j], worker_ws[w]));
      });
      state.rebuild(result.profile);
      // The combined move can overload computers. Per-user feasibility
      // and response times fan out over the pool (each user writes its
      // own slot); the ok flag and the norm then reduce in user order,
      // so the bits are independent of the thread count.
      pool->parallel_for(0, m, 1, [&](std::size_t j, std::size_t w) {
        round_computable[j] = replies_computable(state, result.profile, j,
                                                 inst.phi[j],
                                                 worker_ws[w].avail)
                                  ? 1
                                  : 0;
        round_times[j] = state.user_response_time(result.profile, j);
      });
      for (std::size_t j = 0; j < m; ++j) {
        if (round_computable[j] == 0 || !std::isfinite(round_times[j])) {
          ok = false;
        }
        fold_norm(j, round_times[j]);
      }
    }

    result.iterations = round;
    result.norm_history.push_back(norm);
    recorder.end_round(inst, result.profile, state.loads(), round, norm);
    if (!ok) {  // a diverged Jacobi round: stop
      result.diverged = true;
      break;
    }
#if NASHLB_CHECK_ENABLED
    // Class-weight invariant (alongside LoadState's stride-64 audit):
    // the aggregated instance's demands are the class weights, and their
    // sum must stay the total demand Phi the partition was built from —
    // a mismatch means the dynamics is balancing a different population
    // than the one the eps-Nash certificate will be issued for.
    if (class_mode) {
      double weight_sum = 0.0;
      for (double w : inst.phi) weight_sum += w;
      NASHLB_INVARIANT(
          std::fabs(weight_sum - classes->total_weight()) <=
              1e-9 * std::max(1.0, classes->total_weight()),
          "round %zu: class weights sum to %.17g, partition Phi=%.17g",
          round, weight_sum, classes->total_weight());
    }
#endif
    if (norm <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
  if (result.diverged) {
    result.user_times = std::move(last_times);
    return result;
  }

  // A converged profile must be feasible in the paper's sense — every
  // row on the simplex and every computer strictly stable. A violation
  // here means the incremental state and the profile disagreed.
  NASHLB_ENSURE(!result.converged || result.profile.is_feasible(inst, 1e-6),
                "converged profile infeasible after %zu rounds (norm %.17g)",
                result.iterations, norm);
  result.user_times = user_response_times(inst, result.profile);
  return result;
}

}  // namespace

namespace {

/// Class-mode front end: builds the aggregated instance and runs the
/// shared loop over classes, starting from `start` when provided (it
/// must be class-level) or from the configured initialization.
DynamicsResult run_over_classes(const Instance& inst,
                                const StrategyProfile* start,
                                const DynamicsOptions& options) {
  const UserClassPartition& part = *options.classes;
  if (part.num_users() != inst.num_users()) {
    throw std::invalid_argument(
        "best_reply_dynamics: class partition covers " +
        std::to_string(part.num_users()) + " users, instance has " +
        std::to_string(inst.num_users()));
  }
  part.expect_matches(inst);
  const Instance agg = part.aggregate_instance(inst);
  agg.validate();
  if (start == nullptr && options.init == Initialization::Zero) {
    StrategyProfile zero(agg.num_users(), agg.num_computers());
    std::vector<double> last_times(agg.num_users(), 0.0);
    return run(agg, std::move(zero), std::move(last_times), options, &part);
  }
  StrategyProfile from = start != nullptr
                             ? *start
                             : StrategyProfile::proportional(agg);
  if (from.num_users() != agg.num_users() ||
      from.num_computers() != agg.num_computers()) {
    throw std::invalid_argument(
        "best_reply_dynamics_from: class-mode start profile must be "
        "class-level (num_classes x n)");
  }
  std::vector<double> last_times = user_response_times(agg, from);
  for (double& d : last_times) {
    if (!std::isfinite(d)) d = 0.0;  // e.g. an all-zero start row
  }
  return run(agg, std::move(from), std::move(last_times), options, &part);
}

}  // namespace

DynamicsResult best_reply_dynamics(const Instance& inst,
                                   const DynamicsOptions& options) {
  inst.validate();
  if (options.classes != nullptr) {
    return run_over_classes(inst, nullptr, options);
  }
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  if (options.init == Initialization::Proportional) {
    return best_reply_dynamics_from(inst, StrategyProfile::proportional(inst),
                                    options);
  }
  // NASH_0: start from the empty profile with D_j^(0) := 0 — the first
  // round's norm is then simply sum_j D_j^(1).
  StrategyProfile zero(m, n);
  std::vector<double> last_times(m, 0.0);
  return run(inst, std::move(zero), std::move(last_times), options, nullptr);
}

DynamicsResult best_reply_dynamics_from(const Instance& inst,
                                        const StrategyProfile& start,
                                        const DynamicsOptions& options) {
  inst.validate();
  if (options.classes != nullptr) {
    return run_over_classes(inst, &start, options);
  }
  if (start.num_users() != inst.num_users() ||
      start.num_computers() != inst.num_computers()) {
    throw std::invalid_argument(
        "best_reply_dynamics_from: start profile has wrong dimensions");
  }
  std::vector<double> last_times = user_response_times(inst, start);
  for (double& d : last_times) {
    if (!std::isfinite(d)) d = 0.0;  // e.g. an all-zero start row
  }
  return run(inst, start, std::move(last_times), options, nullptr);
}

}  // namespace nashlb::core
