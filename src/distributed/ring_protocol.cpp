#include "distributed/ring_protocol.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/load_state.hpp"
#include "des/simulator.hpp"
#include "distributed/monitor.hpp"
#include "util/contracts.hpp"

namespace nashlb::distributed {

namespace {

/// All mutable protocol state. The event closures carry a pointer to it
/// (it owns the simulator, so it outlives every pending event) plus at
/// most a user index, which keeps them inside EventFn's inline storage.
struct ProtocolState {
  const core::Instance& inst;
  RingOptions opts;
  des::Simulator sim;
  RateMonitor monitor;
  core::StrategyProfile profile;
  core::LoadState state;          // incremental aggregate loads
  core::BestReplyWorkspace ws;    // per-update scratch (no allocation)
  std::vector<double> last_times;  // D_j at each user's previous update
  std::size_t round = 1;
  double norm = 0.0;
  core::RoundRecorder recorder;
  RingResult result;

  ProtocolState(const core::Instance& instance, const RingOptions& options,
                core::StrategyProfile start)
      : inst(instance),
        opts(options),
        monitor(options.noise_sigma, options.seed),
        profile(std::move(start)),
        state(instance, profile),
        last_times(instance.num_users(), 0.0),
        recorder(options.probe, instance, profile),
        result{profile, false, 0, 0, 0.0, {}, {}} {
    ws.resize(instance.num_computers());
  }
};

/// Token arrival at `user`: update strategy, forward. Declared up front so
/// the closures can recurse.
void deliver_token(ProtocolState* st, std::size_t user);

void send_token(ProtocolState* st, std::size_t to) {
  ++st->result.messages;
  auto token = [st, to](des::SimTime) { deliver_token(st, to); };
  static_assert(des::EventFn::fits_inline<decltype(token)>);
  st->sim.schedule(st->opts.link_latency, token);
}

/// The STOP wave: each user forwards it once, then exits (§3 pseudocode).
void send_stop(ProtocolState* st, std::size_t to) {
  if (to == 0) return;  // wave completed the ring
  ++st->result.messages;
  auto stop = [st, to](des::SimTime) {
    send_stop(st, (to + 1) % st->inst.num_users());
  };
  static_assert(des::EventFn::fits_inline<decltype(stop)>);
  st->sim.schedule(st->opts.link_latency, stop);
}

void update_user(ProtocolState* st, std::size_t user) {
  // Token sanity: a token addressed past the ring means the forwarding
  // arithmetic broke; an update after the STOP wave would double-count.
  NASHLB_EXPECT(user < st->inst.num_users(),
                "token delivered to user %zu of a %zu-user ring", user,
                st->inst.num_users());
  NASHLB_EXPECT(st->round <= st->opts.max_rounds,
                "token circulating in round %zu past max_rounds=%zu",
                st->round, st->opts.max_rounds);
  // Inspect the run queues (O(n) off the incremental loads), apply the
  // monitor's noise model, reply, and commit — the same per-move sequence
  // as core::best_reply_dynamics, so exact monitoring reproduces the
  // in-memory dynamics bit-for-bit.
  st->state.available_rates(st->profile, user, st->ws.avail);
  st->monitor.perturb(st->inst, st->ws.avail);
  core::optimal_fractions_into(st->ws.avail, st->inst.phi[user], st->ws.reply,
                               st->ws.waterfill);
  st->state.commit_row(st->profile, user, st->ws.reply);
  const double d = st->state.user_response_time(st->profile, user);
  st->norm += std::fabs(d - st->last_times[user]);
  st->last_times[user] = d;
}

/// User 1 (index 0) opens every round with its own update and passes the
/// token to its successor — itself when m = 1, so every round sends m
/// token messages. The loads are rebuilt from the profile at each later
/// round boundary, mirroring core::best_reply_dynamics' drift control.
void start_round(ProtocolState* st) {
  auto open = [st](des::SimTime) {
    if (st->round > 1) st->state.rebuild(st->profile);
    update_user(st, 0);
    send_token(st, 1 % st->inst.num_users());
  };
  static_assert(des::EventFn::fits_inline<decltype(open)>);
  st->sim.schedule(st->opts.compute_time, open);
}

void close_round(ProtocolState* st) {
  // The round norm is a sum of |D_j - D_j_prev| terms: nonnegative by
  // construction, and finite under exact monitoring (a noisy monitor can
  // legitimately overload a computer for a round, so only NaN — order of
  // operations gone wrong — is a contract breach there).
  NASHLB_INVARIANT(st->norm >= 0.0 &&
                       (std::isfinite(st->norm) ||
                        (st->opts.noise_sigma > 0.0 && !std::isnan(st->norm))),
                   "round %zu closed with norm=%.17g (noise_sigma=%.3g)",
                   st->round, st->norm, st->opts.noise_sigma);
  st->result.norm_history.push_back(st->norm);
  st->result.rounds = st->round;
  st->recorder.end_round(st->inst, st->profile, st->state.loads(), st->round,
                         st->norm);
  if (st->norm <= st->opts.tolerance) {
    st->result.converged = true;
    send_stop(st, 1 % st->inst.num_users());
    return;
  }
  if (st->round >= st->opts.max_rounds) return;  // give up, not converged
  ++st->round;
  st->norm = 0.0;
  start_round(st);
}

void deliver_token(ProtocolState* st, std::size_t user) {
  if (user == 0) {
    // Token back at user 1: the round is complete.
    close_round(st);
    return;
  }
  auto update = [st, user](des::SimTime) {
    update_user(st, user);
    send_token(st, (user + 1) % st->inst.num_users());
  };
  static_assert(des::EventFn::fits_inline<decltype(update)>);
  st->sim.schedule(st->opts.compute_time, update);
}

}  // namespace

RingResult run_ring_protocol(const core::Instance& inst,
                             const RingOptions& options) {
  inst.validate();
  if (!(options.link_latency >= 0.0) || !(options.compute_time >= 0.0)) {
    throw std::invalid_argument(
        "run_ring_protocol: latencies must be >= 0");
  }
  const std::size_t m = inst.num_users();
  core::StrategyProfile start(m, inst.num_computers());
  std::vector<double> initial_times(m, 0.0);
  if (options.init == core::Initialization::Proportional) {
    start = core::StrategyProfile::proportional(inst);
    initial_times = core::user_response_times(inst, start);
  }

  ProtocolState st(inst, options, std::move(start));
  st.last_times = std::move(initial_times);
  start_round(&st);
  st.sim.run();
  st.result.finish_time = st.sim.now();
  st.result.profile = st.profile;
  st.result.user_times = core::user_response_times(inst, st.profile);
  return std::move(st.result);
}

}  // namespace nashlb::distributed
