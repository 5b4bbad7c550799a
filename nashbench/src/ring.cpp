// ring-protocol: distributed::run_ring_protocol with exact monitoring —
// the NASH algorithm as token messages on the DES engine (§3).
#include <memory>
#include <optional>

#include "des/simulator.hpp"
#include "distributed/monitor.hpp"
#include "distributed/ring_protocol.hpp"
#include "instances.hpp"

namespace nashlb::nashbench {
namespace {

constexpr std::size_t kUsers = 256;
constexpr std::size_t kComputers = 16;
constexpr std::size_t kPool = 1024;

distributed::RingOptions ring_options() {
  distributed::RingOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.tolerance = tolerance_for(kUsers);
  opts.max_rounds = 1000;
  opts.noise_sigma = 0.0;  // exact monitoring
  return opts;
}

/// run_ring_protocol's state and event closures, mirrored with spans: each
/// event body is a distributed.protocol span around the core and des calls
/// it makes.
struct RingReplay {
  RingReplay(const core::Instance& instance, core::StrategyProfile start,
             Recorder& recorder, ReplayCounts& replay_counts)
      : inst(instance),
        opts(ring_options()),
        rec(recorder),
        counts(replay_counts),
        monitor(opts.noise_sigma, opts.seed),
        profile(std::move(start)),
        state(instance, profile),
        first_profile(profile) {
    ws.resize(instance.num_computers());
  }

  const core::Instance& inst;
  distributed::RingOptions opts;
  Recorder& rec;
  ReplayCounts& counts;
  des::Simulator sim;
  distributed::RateMonitor monitor;
  core::StrategyProfile profile;
  core::LoadState state;
  core::StrategyProfile first_profile;  // RingResult's initial copy
  core::BestReplyWorkspace ws;
  std::vector<double> last_times;
  std::size_t round = 1;
  double norm = 0.0;
  bool converged = false;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::vector<double> norms;
};
using State = std::shared_ptr<RingReplay>;

void deliver_token(const State& st, std::size_t user);

/// Schedules `fn` under a des.schedule span, which covers wrapping the
/// closure into a des::EventFn as the protocol's own calls do.
template <class Fn>
void schedule(const State& st, double delay, Fn fn) {
  Scoped span(st->rec, Layer::DesSchedule);
  st->sim.schedule(delay, std::move(fn));
}

void update_user(const State& st, std::size_t user) {
  st->norm += traced_move(
      st->rec, st->counts, st->inst, st->state, st->profile, st->ws, user,
      st->last_times, st->opts.tolerance / static_cast<double>(kUsers),
      [&st](std::span<double> avail) {
        st->monitor.perturb(st->inst, avail);
      });
}

void send_token(const State& st, std::size_t to) {
  ++st->messages;
  schedule(st, st->opts.link_latency, [st, to](des::SimTime) {
    Scoped span(st->rec, Layer::DistributedProtocol);
    deliver_token(st, to);
  });
}

void send_stop(const State& st, std::size_t to) {
  if (to == 0) return;
  ++st->messages;
  schedule(st, st->opts.link_latency, [st, to](des::SimTime) {
    Scoped span(st->rec, Layer::DistributedProtocol);
    send_stop(st, (to + 1) % st->inst.num_users());
  });
}

void close_round(const State& st) {
  st->norms.push_back(st->norm);
  st->rounds = st->round;
  if (st->norm <= st->opts.tolerance) {
    st->converged = true;
    send_stop(st, 1 % st->inst.num_users());
    return;
  }
  if (st->round >= st->opts.max_rounds) return;
  ++st->round;
  st->norm = 0.0;
  schedule(st, st->opts.compute_time, [st](des::SimTime) {
    Scoped span(st->rec, Layer::DistributedProtocol);
    {
      Scoped rebuild(st->rec, Layer::CoreRebuild);
      st->state.rebuild(st->profile);
    }
    update_user(st, 0);
    send_token(st, 1 % st->inst.num_users());
  });
}

void deliver_token(const State& st, std::size_t user) {
  if (user == 0) {
    close_round(st);
    return;
  }
  schedule(st, st->opts.compute_time, [st, user](des::SimTime) {
    Scoped span(st->rec, Layer::DistributedProtocol);
    update_user(st, user);
    send_token(st, (user + 1) % st->inst.num_users());
  });
}

class RingProtocol final : public Workload {
 public:
  const char* work_unit() const override { return "messages/s"; }

  void setup(std::uint64_t seed) override {
    SplitMix rng(sub_seed(seed, 4, 0));
    const std::vector<double> util = stratified(rng, kPool, 0.3, 0.8);
    pool_.resize(util.size());
    for (std::size_t k = 0; k < util.size(); ++k) {
      cluster_instance(rng, kUsers, kComputers, util[k], pool_[k]);
    }
  }
  std::size_t pool_size() const override { return pool_.size(); }

  double run(std::size_t k) override {
    last_.emplace(distributed::run_ring_protocol(pool_[k], ring_options()));
    return static_cast<double>(last_->messages);
  }

  /// V2 equivalence: with exact monitoring the protocol must land on the
  /// in-memory dynamics' profile bitwise, in the same number of rounds.
  Verdict check(std::size_t k) const override {
    const core::Instance& inst = pool_[k];
    core::DynamicsOptions opts = dynamics_options(kUsers);
    opts.max_iterations = ring_options().max_rounds;
    const core::DynamicsResult ref = core::best_reply_dynamics(inst, opts);
    const double eps = relative_eps_nash(inst, last_->profile);
    const bool ok = last_->converged && ref.converged &&
                    last_->rounds == ref.iterations &&
                    same_profile(last_->profile, ref.profile) &&
                    eps <= kPerUserEpsBound;
    return {ok, static_cast<double>(last_->rounds), eps};
  }

  std::uint64_t answer_digest() const override {
    Digest d;
    d.add(static_cast<std::uint64_t>(last_->rounds));
    d.add(static_cast<std::uint64_t>(last_->messages));
    d.add(static_cast<std::uint64_t>(last_->converged));
    d.add(last_->finish_time);
    for (std::size_t j = 0; j < kUsers; ++j) d.add(last_->profile.row(j));
    return d.value();
  }

  std::uint64_t input_digest() override {
    Digest d;
    for (const core::Instance& inst : pool_) {
      d.add(inst.mu);
      d.add(inst.phi);
    }
    return d.value();
  }

  bool replay(std::size_t k, Recorder& rec, ReplayCounts& counts) override {
    const core::Instance& inst = pool_[k];
    const distributed::RingOptions opts = ring_options();
    State st;
    {
      Scoped span(rec, Layer::CoreInit);
      inst.validate();
      core::StrategyProfile start = core::StrategyProfile::proportional(inst);
      std::vector<double> times = core::user_response_times(inst, start);
      st = std::make_shared<RingReplay>(inst, std::move(start), rec, counts);
      st->last_times = std::move(times);
    }
    schedule(st, opts.compute_time, [st](des::SimTime) {
      Scoped span(st->rec, Layer::DistributedProtocol);
      update_user(st, 0);
      send_token(st, 1);
    });
    while (st->sim.pending_events() > 0) {
      counts.pending_max = std::max(
          counts.pending_max, static_cast<double>(st->sim.pending_events()));
      Scoped span(rec, Layer::DesStep);
      st->sim.step();
    }
    const double finish_time = st->sim.now();
    std::vector<double> times;
    {
      Scoped span(rec, Layer::CoreInit);
      times = core::user_response_times(inst, st->profile);
    }
    counts.messages += static_cast<double>(st->messages);
    return st->converged == last_->converged && st->rounds == last_->rounds &&
           st->messages == last_->messages &&
           same_bits(finish_time, last_->finish_time) &&
           same_profile(st->profile, last_->profile) &&
           same_bits(st->norms, last_->norm_history) &&
           same_bits(times, last_->user_times);
  }

  void corrupt() override { last_->rounds += 1; }

 private:
  std::vector<core::Instance> pool_;
  std::optional<distributed::RingResult> last_;
};

}  // namespace

std::unique_ptr<Workload> make_ring_protocol() {
  return std::make_unique<RingProtocol>();
}

}  // namespace nashlb::nashbench
