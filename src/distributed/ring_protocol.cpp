#include "distributed/ring_protocol.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/load_state.hpp"
#include "distributed/monitor.hpp"
#include "util/contracts.hpp"

namespace nashlb::distributed {

namespace {

/// User `user`'s move on token receipt: inspect the run queues (O(n) off
/// the incremental loads), apply the monitor's noise model, reply, and
/// commit — the same per-move sequence as core::best_reply_dynamics, so
/// exact monitoring reproduces the in-memory dynamics bit-for-bit.
/// Returns the user's new response time D_j.
double update_user(const core::Instance& inst, RateMonitor& monitor,
                   core::LoadState& state, core::StrategyProfile& profile,
                   core::BestReplyWorkspace& ws, std::size_t user) {
  state.available_rates(profile, user, ws.avail);
  monitor.perturb(inst, ws.avail);
  core::optimal_fractions_into(ws.avail, inst.phi[user], ws.reply,
                               ws.waterfill);
  state.commit_row(profile, user, ws.reply);
  return state.user_response_time(profile, user);
}

}  // namespace

RingResult run_ring_protocol(const core::Instance& inst,
                             const RingOptions& options) {
  inst.validate();
  const auto is_delay = [](double t) { return t >= 0.0 && std::isfinite(t); };
  if (!is_delay(options.link_latency) || !is_delay(options.compute_time)) {
    throw std::invalid_argument(
        "run_ring_protocol: latencies must be finite and >= 0");
  }
  const std::size_t m = inst.num_users();
  core::StrategyProfile profile(m, inst.num_computers());
  std::vector<double> last_times(m, 0.0);  // D_j at each user's last move
  if (options.init == core::Initialization::Proportional) {
    profile = core::StrategyProfile::proportional(inst);
    last_times = core::user_response_times(inst, profile);
  }
  RateMonitor monitor(options.noise_sigma, options.seed);
  core::LoadState state(inst, profile);  // incremental aggregate loads
  core::BestReplyWorkspace ws;           // per-move scratch (no allocation)
  ws.resize(inst.num_computers());
  core::RoundRecorder recorder(options.probe, inst, profile);

  // One message is in flight at a time, so the simulated clock is a sum
  // taken in ring order: each user's compute slot, then the token's hop
  // to its successor. User 1 (index 0) opens every round and receives
  // the token back to close it — from itself when m = 1 — so a round
  // sends m token messages.
  double clock = 0.0;
  std::vector<double> norms;
  bool converged = false;
  for (std::size_t round = 1; round <= options.max_rounds; ++round) {
    // Rebuilding the loads at each later round boundary mirrors
    // core::best_reply_dynamics' drift control.
    if (round > 1) state.rebuild(profile);
    double norm = 0.0;
    for (std::size_t user = 0; user < m; ++user) {
      clock += options.compute_time;
      const double d = update_user(inst, monitor, state, profile, ws, user);
      norm += std::fabs(d - last_times[user]);
      last_times[user] = d;
      clock += options.link_latency;
    }
    // The round norm is a sum of |D_j - D_j_prev| terms: nonnegative by
    // construction, and finite under exact monitoring (a noisy monitor
    // can legitimately overload a computer for a round, so only NaN —
    // order of operations gone wrong — is a contract breach there).
    NASHLB_INVARIANT(norm >= 0.0 &&
                         (std::isfinite(norm) ||
                          (options.noise_sigma > 0.0 && !std::isnan(norm))),
                     "round %zu closed with norm=%.17g (noise_sigma=%.3g)",
                     round, norm, options.noise_sigma);
    norms.push_back(norm);
    recorder.end_round(inst, profile, state.loads(), round, norm);
    if (norm <= options.tolerance) {
      converged = true;
      break;
    }
  }
  const std::size_t rounds = norms.size();
  std::size_t messages = rounds * m;
  if (converged) {
    // The STOP wave (§3 pseudocode): one hop to each of users 2..m.
    for (std::size_t user = 1; user < m; ++user) {
      clock += options.link_latency;
      ++messages;
    }
  }
  std::vector<double> user_times = core::user_response_times(inst, profile);
  return RingResult{std::move(profile), converged, rounds, messages, clock,
                    std::move(norms), std::move(user_times)};
}

}  // namespace nashlb::distributed
