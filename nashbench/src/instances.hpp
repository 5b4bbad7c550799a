// Seeded problem instances and answer checks shared by the solver
// workloads (solve-peruser, solve-classes, ring-protocol).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "core/load_state.hpp"
#include "core/types.hpp"

namespace nashlb::nashbench {

/// The bench_scale convention: the stopping norm sums |dD_j| over users,
/// so the tolerance grows with m to keep the per-user stringency fixed.
inline double tolerance_for(std::size_t m) {
  return 1e-4 * static_cast<double>(m) / 10.0;
}

/// n computers in the Table-1 speed classes {10, 20, 50, 100} jobs/s,
/// cycled (so equal speeds tie exactly, as in real clusters), and m users
/// with log-uniform demands over a 100x spread, scaled to `utilization`.
/// Writes into `inst`, reusing its storage.
inline void cluster_instance(SplitMix& rng, std::size_t m, std::size_t n,
                             double utilization, core::Instance& inst) {
  static constexpr double kSpeeds[4] = {10.0, 20.0, 50.0, 100.0};
  inst.mu.resize(n);
  double capacity = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    inst.mu[i] = kSpeeds[i % 4];
    capacity += inst.mu[i];
  }
  inst.phi.resize(m);
  const double log_spread = std::log(100.0);
  double total = 0.0;
  for (double& phi : inst.phi) {
    phi = std::exp(rng.uniform() * log_spread);
    total += phi;
  }
  const double scale = utilization * capacity / total;
  for (double& phi : inst.phi) phi *= scale;
}

/// The NASH_P round-robin options every solver workload runs with.
inline core::DynamicsOptions dynamics_options(std::size_t m) {
  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.order = core::UpdateOrder::RoundRobin;
  opts.tolerance = tolerance_for(m);
  opts.max_iterations = 1000;
  opts.threads = 1;  // explicit, so NASHLB_THREADS cannot change the run
  return opts;
}

/// Worst relative unilateral gain max_j (D_j − D_j*)/D_j of a profile.
inline double relative_eps_nash(const core::Instance& inst,
                                const core::StrategyProfile& s) {
  const std::vector<double> loads = s.loads(inst);
  const std::vector<double> d = core::user_response_times(inst, s);
  double worst = 0.0;
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    worst = std::max(worst, core::best_reply_gain(inst, s, j, loads) / d[j]);
  }
  return worst;
}

/// Bound on relative_eps_nash that a per-user answer must meet. The
/// stopping rule bounds the last round's summed movement, not the gain
/// of each user, so this is an empirical ceiling with wide margin: over
/// thousands of seeded instances of both per-user workloads the largest
/// value seen is ~5e-3.
inline constexpr double kPerUserEpsBound = 2e-2;

/// Bitwise equality of two profiles of the same shape.
inline bool same_profile(const core::StrategyProfile& a,
                         const core::StrategyProfile& b) {
  if (a.num_users() != b.num_users() ||
      a.num_computers() != b.num_computers()) {
    return false;
  }
  for (std::size_t j = 0; j < a.num_users(); ++j) {
    if (!same_bits(a.row(j), b.row(j))) return false;
  }
  return true;
}

/// One best-reply move of user j on the incremental core, call by call
/// under spans: available rates, `observe` (the ring's run-queue monitor;
/// nothing for the in-memory dynamics), the waterfill, the commit and the
/// response time. Counts the move, and as idle when |dD_j| < `idle`;
/// updates last[j] and returns |dD_j|.
template <class Observe>
double traced_move(Recorder& rec, ReplayCounts& counts,
                   const core::Instance& inst, core::LoadState& state,
                   core::StrategyProfile& s, core::BestReplyWorkspace& ws,
                   std::size_t j, std::vector<double>& last, double idle,
                   Observe observe) {
  {
    Scoped span(rec, Layer::CoreAvailableRates);
    state.available_rates(s, j, inst.phi[j], ws.avail);
  }
  observe(ws.avail);
  {
    Scoped span(rec, Layer::CoreWaterfill);
    core::optimal_fractions_into(ws.avail, inst.phi[j], ws.reply,
                                 ws.waterfill);
  }
  std::size_t support = 0;
  for (double x : ws.reply) support += x > 0.0 ? 1 : 0;
  counts.waterfill_support +=
      static_cast<double>(support) / static_cast<double>(ws.reply.size());
  {
    Scoped span(rec, Layer::CoreCommitRow);
    state.commit_row(s, j, ws.reply);
  }
  double d = 0.0;
  {
    Scoped span(rec, Layer::CoreResponseTime);
    d = state.user_response_time(s, j);
  }
  const double delta = std::fabs(d - last[j]);
  counts.moves += 1.0;
  if (delta < idle) counts.idle_moves += 1.0;
  last[j] = d;
  return delta;
}

}  // namespace nashlb::nashbench
