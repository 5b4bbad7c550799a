#include "support/calendar_sim.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "stats/distributions.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"

namespace nashlb::test_support {
namespace {

using simmodel::SimConfig;
using simmodel::SimRunResult;

// simulate's stream-id layout within a replication: one arrival stream
// and one dispatch stream per user, one service stream per computer.
enum StreamKind : std::uint64_t {
  kArrival = 0,
  kDispatch = 1,
  kService = 2,
};

std::uint64_t stream_id(StreamKind kind, std::size_t index) {
  return static_cast<std::uint64_t>(kind) * 4096 +
         static_cast<std::uint64_t>(index);
}

/// Per-run state shared by the event closures, which carry only a pointer
/// to it plus the job's own fields, so they fit EventFn's inline storage.
struct Run {
  Run(const core::Instance& inst, const core::StrategyProfile& profile,
      const SimConfig& config);

  /// Draws `user`'s next inter-arrival gap and schedules that arrival,
  /// unless it falls past the horizon.
  void schedule_arrival(std::size_t user);
  void arrive(std::size_t user, des::SimTime t_arrival);
  void complete(std::size_t user, des::SimTime t_arrival,
                des::SimTime t_done);

  const SimConfig& config;
  des::Simulator sim;
  std::vector<std::unique_ptr<des::Facility>> computers;
  std::vector<stats::Xoshiro256> arrival_rng;
  std::vector<stats::Xoshiro256> dispatch_rng;
  std::vector<stats::Xoshiro256> service_rng;
  std::vector<stats::Exponential> interarrival;
  std::vector<stats::Exponential> service;
  std::vector<stats::Discrete> dispatch;
  std::vector<stats::RunningStats> user_stats;
  stats::RunningStats overall_stats;
  std::uint64_t jobs_generated = 0;
  std::uint64_t jobs_completed = 0;
};

Run::Run(const core::Instance& inst, const core::StrategyProfile& profile,
         const SimConfig& cfg)
    : config(cfg), user_stats(inst.num_users()) {
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  const stats::RngStreams streams(config.seed);

  computers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    computers.push_back(std::make_unique<des::Facility>(
        sim, "computer-" + std::to_string(i), 1, des::PreemptPolicy::None));
  }
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
  dispatch.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    dispatch.emplace_back(profile.row(j));
  }
}

void Run::schedule_arrival(std::size_t user) {
  const double gap = interarrival[user].sample(arrival_rng[user]);
  if (sim.now() + gap > config.horizon) return;
  auto arrival = [this, user](des::SimTime t) { arrive(user, t); };
  static_assert(des::EventFn::fits_inline<decltype(arrival)>);
  sim.schedule(gap, arrival);
}

void Run::arrive(std::size_t user, des::SimTime t_arrival) {
  ++jobs_generated;
  const std::size_t target = dispatch[user].sample(dispatch_rng[user]);
  const double service_time = service[target].sample(service_rng[target]);
  auto completion = [this, user, t_arrival](des::SimTime t_done) {
    complete(user, t_arrival, t_done);
  };
  static_assert(des::EventFn::fits_inline<decltype(completion)>);
  computers[target]->request(service_time, completion);
  schedule_arrival(user);
}

void Run::complete(std::size_t user, des::SimTime t_arrival,
                   des::SimTime t_done) {
  ++jobs_completed;
  if (t_arrival >= config.warmup) {
    const double response = t_done - t_arrival;
    user_stats[user].add(response);
    overall_stats.add(response);
    if (config.on_sample) config.on_sample(user, response);
  }
}

}  // namespace

SimRunResult calendar_simulate(const core::Instance& inst,
                               const core::StrategyProfile& profile,
                               const SimConfig& config) {
  inst.validate();
  if (!profile.is_feasible(inst, 1e-7)) {
    throw std::invalid_argument("calendar_simulate: profile is not feasible");
  }
  if (!(config.horizon > 0.0) || !std::isfinite(config.horizon) ||
      !(config.warmup >= 0.0) || !(config.warmup < config.horizon)) {
    throw std::invalid_argument(
        "calendar_simulate: need 0 <= warmup < horizon, horizon > 0 and "
        "finite");
  }

  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  Run run(inst, profile, config);
  for (std::size_t j = 0; j < m; ++j) run.schedule_arrival(j);
  run.sim.run();  // drains: generation stops at the horizon

  const des::SimTime end = run.sim.now();
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
  result.end_time = end;
  result.computer_utilization.assign(n, 0.0);
  result.computer_sojourn.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const des::Facility& computer = *run.computers[i];
    result.computer_utilization[i] = computer.utilization(end);
    result.computer_sojourn.push_back(computer.sojourn_histogram());
  }
  return result;
}

}  // namespace nashlb::test_support
