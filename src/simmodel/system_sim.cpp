#include "simmodel/system_sim.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "des/server_bank.hpp"
#include "stats/distributions.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"

namespace nashlb::simmodel {
namespace {

// Stream-id layout within a replication: one arrival stream and one
// dispatch stream per user, one service stream per computer.
enum StreamKind : std::uint64_t {
  kArrival = 0,
  kDispatch = 1,
  kService = 2,
};

std::uint64_t stream_id(StreamKind kind, std::size_t index) {
  return static_cast<std::uint64_t>(kind) * 4096 +
         static_cast<std::uint64_t>(index);
}

/// A user's next arrival. `draw` numbers the gap draws that scheduled an
/// arrival, so equal times go in draw order, as on the event calendar.
struct NextArrival {
  double time;
  std::uint64_t draw;
};

/// The time of a user whose arrivals have passed the horizon.
constexpr double kNever = std::numeric_limits<double>::infinity();

/// Departures are folded at every kFoldEvery-th arrival. Every job
/// admitted later departs after that arrival, so the departures before it
/// are final and the fold order stays the departure order whatever the
/// batch. Popping them in batches instead of testing the heap's top at
/// every arrival ran 8% faster at 8 (median of 22 alternations, faster in
/// 20; Table 1 under PS, 5 x 200 s at each load from 0.1 to 0.9, on a
/// 2.0 GHz Xeon); the unpredictable exit of the pop loop is the likely
/// cause, not measured with counters.
constexpr std::size_t kFoldEvery = 8;

struct Run {
  Run(const core::Instance& inst, const core::StrategyProfile& profile,
      const SimConfig& config);

  /// Draws `user`'s next inter-arrival gap after `now`; an arrival past
  /// the horizon ends the user's chain.
  void draw_arrival(std::size_t user, double now);
  /// The user whose arrival comes next (time, then draw order): a scan of
  /// the m users, O(m) per job.
  [[nodiscard]] std::size_t next_user() const noexcept;
  void arrive(std::size_t user, double t_arrival);
  void depart(const des::ServerBank::Job& job);

  const SimConfig& config;
  des::ServerBank computers;
  std::vector<stats::Xoshiro256> arrival_rng;
  std::vector<stats::Xoshiro256> dispatch_rng;
  std::vector<stats::Xoshiro256> service_rng;
  std::vector<stats::Exponential> interarrival;
  std::vector<stats::Exponential> service;
  std::vector<stats::Discrete> dispatch;
  std::vector<NextArrival> next;
  std::uint64_t draws = 0;
  std::vector<double> busy;  // each computer's busy time, sum of D - start
  std::vector<obs::Histogram> sojourn;
  std::vector<stats::RunningStats> user_stats;
  stats::RunningStats overall_stats;
  std::uint64_t jobs_generated = 0;
  std::uint64_t jobs_completed = 0;
  double end = 0.0;  // the last departure
};

Run::Run(const core::Instance& inst, const core::StrategyProfile& profile,
         const SimConfig& cfg)
    : config(cfg),
      computers(inst.num_computers()),
      next(inst.num_users()),
      busy(inst.num_computers(), 0.0),
      sojourn(inst.num_computers()),
      user_stats(inst.num_users()) {
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  // Per-replication stream family: replication r of the same experiment
  // uses disjoint streams, exactly the paper's replication discipline.
  const stats::RngStreams streams(config.seed);
  for (std::size_t j = 0; j < m; ++j) {
    arrival_rng.push_back(
        streams.stream(config.replication, stream_id(kArrival, j)));
    dispatch_rng.push_back(
        streams.stream(config.replication, stream_id(kDispatch, j)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    service_rng.push_back(
        streams.stream(config.replication, stream_id(kService, i)));
  }

  interarrival.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    interarrival.emplace_back(inst.phi[j]);
  }
  service.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    service.emplace_back(inst.mu[i]);
  }

  // Dispatch tables: alias samplers over each user's strategy row. Rows
  // can carry exact zeros (inactive computers); Discrete never draws them.
  dispatch.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    dispatch.emplace_back(profile.row(j));
  }
}

// Job generation: each user is a self-renewing arrival process that stops
// at the horizon; the jobs still pending depart afterwards.
void Run::draw_arrival(std::size_t user, double now) {
  const double gap = interarrival[user].sample(arrival_rng[user]);
  // The horizon is tested before the gap, as the calendar did: a gap of
  // +inf ends the chain, a NaN or negative one is rejected.
  if (now + gap > config.horizon) {
    next[user] = {kNever, 0};
    return;
  }
  if (!(gap >= 0.0) || !std::isfinite(gap)) {
    throw std::invalid_argument(
        "simulate: inter-arrival gap must be finite and >= 0");
  }
  next[user] = {now + gap, draws++};
}

std::size_t Run::next_user() const noexcept {
  std::size_t best = 0;
  for (std::size_t j = 1; j < next.size(); ++j) {
    if (next[j].time < next[best].time ||
        (next[j].time == next[best].time && next[j].draw < next[best].draw)) {
      best = j;
    }
  }
  return best;
}

void Run::arrive(std::size_t user, double t_arrival) {
  ++jobs_generated;
  const std::size_t target = dispatch[user].sample(dispatch_rng[user]);
  const double service_time = service[target].sample(service_rng[target]);
  const des::ServerBank::Admission job =
      computers.admit(target, t_arrival, service_time, user);
  busy[target] += job.departure - job.start;
  sojourn[target].record(job.departure - t_arrival);
  draw_arrival(user, t_arrival);
}

void Run::depart(const des::ServerBank::Job& job) {
  ++jobs_completed;
  end = job.departure;
  if (job.arrival >= config.warmup) {
    const double response = job.departure - job.arrival;
    user_stats[job.user].add(response);
    overall_stats.add(response);
    if (config.on_sample) config.on_sample(job.user, response);
  }
}

}  // namespace

SimRunResult simulate(const core::Instance& inst,
                      const core::StrategyProfile& profile,
                      const SimConfig& config) {
  inst.validate();
  if (!profile.is_feasible(inst, 1e-7)) {
    throw std::invalid_argument("simulate: profile is not feasible");
  }
  // A non-finite horizon would never stop generating jobs.
  if (!(config.horizon > 0.0) || !std::isfinite(config.horizon) ||
      !(config.warmup >= 0.0) || !(config.warmup < config.horizon)) {
    throw std::invalid_argument(
        "simulate: need 0 <= warmup < horizon, horizon > 0 and finite");
  }

  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  Run run(inst, profile, config);
  for (std::size_t j = 0; j < m; ++j) run.draw_arrival(j, 0.0);
  // Departures are folded in departure order: those before an arrival in
  // batches as the clock advances, the rest once generation stops at the
  // horizon.
  const auto depart = [&run](const des::ServerBank::Job& job) {
    run.depart(job);
  };
  std::size_t since_fold = 0;
  for (std::size_t user = run.next_user(); run.next[user].time != kNever;
       user = run.next_user()) {
    const double t = run.next[user].time;
    if (++since_fold == kFoldEvery) {
      since_fold = 0;
      run.computers.depart_before(t, depart);
    }
    run.arrive(user, t);
  }
  run.computers.drain(depart);

  SimRunResult result;
  result.jobs_generated = run.jobs_generated;
  result.jobs_completed = run.jobs_completed;
  result.user_mean_response.assign(m, 0.0);
  result.user_jobs.assign(m, 0);
  for (std::size_t j = 0; j < m; ++j) {
    result.user_mean_response[j] = run.user_stats[j].mean();
    result.user_jobs[j] = run.user_stats[j].count();
  }
  result.overall_mean_response = run.overall_stats.mean();
  result.end_time = run.end;
  result.computer_utilization.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (run.end > 0.0) result.computer_utilization[i] = run.busy[i] / run.end;
  }
  result.computer_sojourn = std::move(run.sojourn);
  return result;
}

}  // namespace nashlb::simmodel
