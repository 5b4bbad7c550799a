#include "adaptive/online.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "core/best_reply.hpp"
#include "des/server_bank.hpp"
#include "des/simulator.hpp"
#include "stats/distributions.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"

namespace nashlb::adaptive {

const std::vector<double>& RateSchedule::at(double t) const {
  std::size_t k = 0;
  while (k + 1 < start_times.size() && start_times[k + 1] <= t) ++k;
  return phi[k];
}

void RateSchedule::validate() const {
  if (start_times.empty() || start_times.size() != phi.size()) {
    throw std::invalid_argument(
        "RateSchedule: need matching, non-empty times and rates");
  }
  if (start_times.front() != 0.0) {
    throw std::invalid_argument("RateSchedule: first segment must start at 0");
  }
  const std::size_t m = phi.front().size();
  for (std::size_t k = 0; k < phi.size(); ++k) {
    if (k > 0 && !(start_times[k] > start_times[k - 1])) {
      throw std::invalid_argument("RateSchedule: times must be ascending");
    }
    if (phi[k].size() != m) {
      throw std::invalid_argument("RateSchedule: user count must not change");
    }
    for (double rate : phi[k]) {
      if (!(rate > 0.0) || !std::isfinite(rate)) {
        throw std::invalid_argument("RateSchedule: rates must be > 0");
      }
    }
  }
}

namespace {

/// Damping of each strategy update: the adopted row is
/// (1-kGain)*old + kGain*best_reply. 1 would be undamped (it can
/// oscillate under measurement staleness); 0.5 trades convergence speed
/// for stability under noisy windowed estimates.
constexpr double kGain = 0.5;

/// Categorical draw by cumulative scan — the profile mutates at runtime,
/// so a rebuildable O(n) scan beats maintaining alias tables.
std::size_t sample_row(std::span<const double> row, stats::Xoshiro256& rng) {
  const double u = rng.next_double();
  double acc = 0.0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    acc += row[i];
    if (u < acc) return i;
  }
  return row.size() - 1;  // rounding tail
}

/// Timestamped cumulative measurements for windowed estimation.
struct Snapshot {
  double time = 0.0;
  std::vector<double> computer_arrivals;          // per computer
  std::vector<std::vector<double>> own_arrivals;  // per user x computer
};

/// Per-run state shared by the event closures, which carry only a pointer
/// to it plus the job's own fields, so they fit EventFn's inline storage.
/// The calendar holds the arrivals, the controller ticks and the segment
/// boundaries; each job's departure is computed at its arrival by the
/// computers' des::ServerBank and folded once the clock passes it.
struct OnlineRun {
  OnlineRun(const std::vector<double>& mu_in, const RateSchedule& schedule_in,
            const core::StrategyProfile& initial,
            const OnlineOptions& options_in)
      : mu(mu_in),
        schedule(schedule_in),
        options(options_in),
        n(mu_in.size()),
        m(schedule_in.phi.front().size()),
        computers(mu_in.size()),
        result{{}, 0.0, 0, initial, 0},
        computer_arrivals(n, 0.0),
        own_arrivals(m, std::vector<double>(n, 0.0)),
        generation(m, 0) {
    const stats::RngStreams streams(options.seed);
    dispatch_rng = streams.stream(0, 1);
    for (std::size_t j = 0; j < m; ++j) {
      arrival_rng.push_back(streams.stream(0, 100 + j));
    }
    for (std::size_t i = 0; i < n; ++i) {
      service_rng.push_back(streams.stream(0, 10000 + i));
    }
  }

  [[nodiscard]] Snapshot take_snapshot() const {
    Snapshot snap;
    snap.time = sim.now();
    snap.computer_arrivals = computer_arrivals;
    snap.own_arrivals = own_arrivals;
    return snap;
  }

  /// Draws `user`'s next inter-arrival gap at the rate in force and
  /// schedules that arrival, unless a segment boundary superseded `gen`
  /// or the arrival falls past the horizon.
  void spawn_next(std::size_t user, std::uint64_t gen) {
    if (gen != generation[user]) return;
    const double rate = schedule.at(sim.now())[user];
    const double gap =
        -std::log(arrival_rng[user].next_double_open()) / rate;
    if (sim.now() + gap > options.horizon) return;
    auto arrival = [this, user, gen](des::SimTime t) { arrive(user, gen, t); };
    static_assert(des::EventFn::fits_inline<decltype(arrival)>);
    sim.schedule(gap, arrival);
  }

  void arrive(std::size_t user, std::uint64_t gen, des::SimTime t_arrival) {
    computers.depart_before(t_arrival, [this](const des::ServerBank::Job& job) {
      depart(job);
    });
    if (gen != generation[user]) return;
    const std::size_t target =
        sample_row(result.final_profile.row(user), dispatch_rng);
    computer_arrivals[target] += 1.0;
    own_arrivals[user][target] += 1.0;
    const double service =
        -std::log(service_rng[target].next_double_open()) / mu[target];
    computers.admit(target, t_arrival, service, user);
    spawn_next(user, gen);
  }

  /// Folds a departed job into the report window its departure falls in.
  void depart(const des::ServerBank::Job& job) {
    ++result.jobs_completed;
    const double response = job.departure - job.arrival;
    const auto w =
        static_cast<std::size_t>(job.departure / options.report_period);
    if (window_stats.size() <= w) window_stats.resize(w + 1);
    window_stats[w].add(response);
    if (job.departure >= options.report_period) overall.add(response);
  }

  /// A segment boundary: restarts every user's chain at its new rate.
  void start_segment() {
    for (std::size_t j = 0; j < m; ++j) {
      ++generation[j];
      spawn_next(j, generation[j]);
    }
  }

  void schedule_control() {
    auto tick = [this](des::SimTime) { control(); };
    static_assert(des::EventFn::fits_inline<decltype(tick)>);
    sim.schedule(options.update_period, tick);
  }

  void control();

  const std::vector<double>& mu;
  const RateSchedule& schedule;
  const OnlineOptions& options;
  const std::size_t n;
  const std::size_t m;
  des::Simulator sim;
  stats::Xoshiro256 dispatch_rng;
  std::vector<stats::Xoshiro256> arrival_rng;
  std::vector<stats::Xoshiro256> service_rng;
  des::ServerBank computers;
  OnlineResult result;

  // --- measurement state -----------------------------------------------
  // Arrival-rate metering: cumulative dispatch counts per computer (the
  // observable behind "run queue length estimation" — unlike busy-time,
  // arrival rates do NOT saturate under overload, so an overloaded
  // computer is visibly over-subscribed) and each user's own dispatch
  // counts per computer (local knowledge a user always has).
  std::vector<double> computer_arrivals;
  std::vector<std::vector<double>> own_arrivals;
  std::deque<Snapshot> history;

  // --- response-time reporting -----------------------------------------
  std::vector<stats::RunningStats> window_stats;
  stats::RunningStats overall;

  // Each user's arrival chain carries a generation stamp; segment
  // boundaries bump the generation and restart the chain at the new
  // rate, which both realizes the schedule and keeps the process
  // memoryless per segment.
  std::vector<std::uint64_t> generation;
  std::size_t next_user = 0;  // the controller's round-robin cursor
};

void OnlineRun::control() {
  // Windowed estimates: compare against the oldest snapshot still
  // inside the measurement window (or the oldest available).
  const Snapshot now_snap = take_snapshot();
  while (history.size() > 1 &&
         now_snap.time - history[1].time >= options.window) {
    history.pop_front();
  }
  const Snapshot& base = history.front();
  const double span = now_snap.time - base.time;
  if (span > 0.0) {
    const std::size_t user = next_user;
    next_user = (next_user + 1) % m;

    double phi_hat = 0.0;
    std::vector<double> own(n);
    for (std::size_t i = 0; i < n; ++i) {
      own[i] =
          (now_snap.own_arrivals[user][i] - base.own_arrivals[user][i]) /
          span;
      phi_hat += own[i];
    }
    if (phi_hat > 0.0) {
      std::vector<double> avail(n);
      double headroom = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double lambda_hat =
            (now_snap.computer_arrivals[i] - base.computer_arrivals[i]) /
            span;
        // Available rate as seen by this user: capacity minus the
        // *other* users' metered arrival rate. Unlike a busy-fraction
        // estimate this goes negative under overload (clamped to a
        // floor), so over-subscribed computers actively repel flow.
        avail[i] = std::clamp(mu[i] - (lambda_hat - own[i]), 1e-3 * mu[i],
                              mu[i]);
        headroom += avail[i];
      }
      if (phi_hat < 0.95 * headroom) {
        const std::vector<double> reply =
            core::optimal_fractions(avail, phi_hat);
        // Damped adoption: measurement noise and cross-user staleness
        // make the raw best reply overshoot; a convex step keeps the
        // loop stable without changing its fixed point.
        core::StrategyProfile& profile = result.final_profile;
        std::vector<double> row(n);
        for (std::size_t i = 0; i < n; ++i) {
          row[i] = (1.0 - kGain) * profile.at(user, i) + kGain * reply[i];
        }
        profile.set_row(user, row);
        ++result.strategy_updates;
      }
    }
  }
  history.push_back(now_snap);
  if (sim.now() + options.update_period <= options.horizon) {
    schedule_control();
  }
}

}  // namespace

OnlineResult simulate_online(const std::vector<double>& mu,
                             const RateSchedule& schedule,
                             const core::StrategyProfile& initial,
                             const OnlineOptions& options) {
  schedule.validate();
  const std::size_t n = mu.size();
  const std::size_t m = schedule.phi.front().size();
  if (initial.num_users() != m || initial.num_computers() != n) {
    throw std::invalid_argument("simulate_online: profile shape mismatch");
  }
  for (std::size_t j = 0; j < m; ++j) {
    double total = 0.0;
    for (double f : initial.row(j)) {
      if (!(f >= 0.0)) {
        throw std::invalid_argument(
            "simulate_online: initial profile has negative fractions");
      }
      total += f;
    }
    if (std::fabs(total - 1.0) > 1e-6) {
      throw std::invalid_argument(
          "simulate_online: initial profile rows must sum to 1");
    }
  }
  // A non-finite horizon would never stop generating jobs.
  if (!(options.horizon > 0.0) || !std::isfinite(options.horizon) ||
      !(options.update_period > 0.0) || !(options.window > 0.0) ||
      !(options.report_period > 0.0)) {
    throw std::invalid_argument(
        "simulate_online: need a finite horizon > 0 and periods > 0");
  }
  double capacity = 0.0;
  for (double rate : mu) {
    if (!(rate > 0.0)) {
      throw std::invalid_argument("simulate_online: computer rates must be > 0");
    }
    capacity += rate;
  }
  for (const std::vector<double>& seg : schedule.phi) {
    double total = 0.0;
    for (double rate : seg) total += rate;
    if (!(total < capacity)) {
      throw std::invalid_argument(
          "simulate_online: every segment must satisfy Phi < capacity");
    }
  }

  OnlineRun run(mu, schedule, initial, options);
  for (std::size_t j = 0; j < m; ++j) run.spawn_next(j, 0);
  for (std::size_t k = 1; k < schedule.start_times.size(); ++k) {
    if (schedule.start_times[k] >= options.horizon) break;
    auto boundary = [&run](des::SimTime) { run.start_segment(); };
    static_assert(des::EventFn::fits_inline<decltype(boundary)>);
    run.sim.schedule_at(schedule.start_times[k], boundary);
  }
  // A static run meters nothing: no controller events, no snapshots.
  if (options.adapt) {
    run.history.push_back(run.take_snapshot());
    run.schedule_control();
  }
  run.sim.run();
  run.computers.drain(
      [&run](const des::ServerBank::Job& job) { run.depart(job); });

  OnlineResult& result = run.result;
  for (std::size_t w = 0; w < run.window_stats.size(); ++w) {
    WindowReport report;
    report.end_time = (static_cast<double>(w) + 1.0) * options.report_period;
    report.mean_response = run.window_stats[w].mean();
    report.jobs = run.window_stats[w].count();
    result.windows.push_back(report);
  }
  result.overall_mean_response = run.overall.mean();
  return std::move(result);
}

}  // namespace nashlb::adaptive
