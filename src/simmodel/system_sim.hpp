// End-to-end discrete-event simulation of the distributed system (§4.1).
//
// "The simulation model consists of a collection of computers connected by
// a communication network. Jobs arriving at the system are distributed to
// the computers according to the specified load balancing scheme. Jobs
// which have been dispatched to a particular computer are run-to-completion
// in FCFS order. Each computer is modeled as an M/M/1 queueing system."
//
// Mapping to this module:
//   * each user is a Poisson source with rate phi_j (exponential
//     inter-arrival times, one RNG stream per user per replication);
//   * each arriving job is dispatched to computer i with probability
//     s_ji — the strategy profile acts as a probabilistic splitter (an
//     O(1) alias-table draw);
//   * each computer is a single-server FCFS des::Facility with
//     exponential service at rate mu_i;
//   * per-user and per-computer response-time statistics accumulate after
//     a warm-up cutoff so transients don't bias the steady-state means.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace nashlb::simmodel {

/// One simulation run's parameters.
struct SimConfig {
  /// Simulated seconds of job generation. The paper runs "several
  /// thousands of seconds, sufficient to generate 1 to 2 million jobs".
  double horizon = 2000.0;
  /// Statistics ignore jobs arriving before this time (warm-up).
  double warmup = 100.0;
  /// Master seed; combined with `replication` to derive all streams.
  std::uint64_t seed = 0xC0FFEEULL;
  /// Replication index (selects independent RNG streams).
  std::uint64_t replication = 0;
  /// Optional per-job hook: called for every post-warm-up completion with
  /// (user, response time), in completion order. Feeds per-job analyses
  /// such as response-time histograms without the simulator having to
  /// store per-job records.
  std::function<void(std::size_t, double)> on_sample;
  /// Optional metrics sink (not owned, may be null): when the run
  /// drains, the DES kernel and every facility publish their counters,
  /// timers and sojourn histograms into it (`des.*`, `computer-<i>.*`).
  /// The Registry is not thread-safe — concurrent replications each get
  /// their own shard registry, merged after the join (see
  /// replication.hpp and docs/OBSERVABILITY.md, "Sharded registries").
  /// A no-op when the obs layer is compiled out.
  obs::Registry* metrics = nullptr;
};

/// Steady-state estimates from one run.
struct SimRunResult {
  /// Mean response time of each user's jobs (post-warm-up completions).
  std::vector<double> user_mean_response;
  /// Number of post-warm-up completions per user.
  std::vector<std::uint64_t> user_jobs;
  /// Job-weighted mean response time over all users.
  double overall_mean_response = 0.0;
  /// Busy fraction of each computer over the measured window.
  std::vector<double> computer_utilization;
  /// Mean response time of post-warm-up jobs completed at each computer
  /// (0 where no job completed) — compare with MM1::mean_response_time.
  std::vector<double> computer_mean_response;
  /// Post-warm-up completions per computer.
  std::vector<std::uint64_t> computer_jobs;
  /// Time-average number waiting at each computer — compare with
  /// MM1::mean_queue_length (Little's law cross-check in the tests).
  std::vector<double> computer_mean_queue;
  /// Per-computer sojourn-time histogram (every completed job, including
  /// warm-up — see des::Facility::sojourn_histogram). Quantiles compare
  /// with the exact M/M/1 sojourn quantile -ln(1-q)/(mu_i - lambda_i).
  /// Empty histograms when the obs layer is compiled out.
  std::vector<obs::Histogram> computer_sojourn;
  /// Total jobs generated / completed (incl. warm-up).
  std::uint64_t jobs_generated = 0;
  std::uint64_t jobs_completed = 0;
  /// Time the simulation drained (>= horizon; in-flight jobs finish).
  double end_time = 0.0;
};

/// Simulates `profile` on `inst`. The profile must be feasible (see
/// StrategyProfile::is_feasible); throws std::invalid_argument otherwise.
[[nodiscard]] SimRunResult simulate(const core::Instance& inst,
                                    const core::StrategyProfile& profile,
                                    const SimConfig& config = {});

}  // namespace nashlb::simmodel
