// Replicated simulation runs with confidence intervals (§4.1).
//
// "Each run was replicated five times with different random number streams
// and the results averaged over replications. The standard error is less
// than 5% at the 95% confidence level." This module runs R independent
// replications (optionally on worker threads — each replication owns a
// whole Simulator, so parallelism is embarrassingly clean) and reduces
// them into Student-t intervals per user and overall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "simmodel/system_sim.hpp"
#include "stats/confidence.hpp"

namespace nashlb::simmodel {

/// Parameters of a replicated experiment.
struct ReplicationConfig {
  SimConfig base;                 ///< per-run parameters (seed, horizon...)
  std::size_t replications = 5;   ///< the paper's count
  double confidence = 0.95;
  /// Worker threads for the replication fan-out (util::ThreadPool):
  /// 0 = auto (NASHLB_THREADS env, else hardware concurrency),
  /// 1 = sequential, k > 1 = exactly k workers. Replication r always
  /// runs with stream family r regardless of which worker executes it,
  /// so every replication's sample path is bitwise identical to the
  /// sequential run (tests/simmodel/test_replication.cpp pins this).
  std::size_t threads = 0;
  /// Optional metrics sink (not owned, may be null): each replication
  /// publishes its DES metrics (see SimConfig::metrics) into a private
  /// shard registry; after the workers join the shards merge into this
  /// registry in replication order (counters sum, timers fold extremes,
  /// histograms merge cell-by-cell), so the merged registry is identical
  /// for every thread count. `base.metrics` is ignored — the shard takes
  /// its place. A no-op when the obs layer is compiled out.
  obs::Registry* metrics = nullptr;
};

/// Reduced results across replications.
struct ReplicatedResult {
  /// Mean response time per user with its confidence interval.
  std::vector<stats::ConfidenceInterval> user_response;
  /// Overall (job-weighted) mean response time interval.
  stats::ConfidenceInterval overall_response;
  /// Mean per-computer utilization across replications.
  std::vector<double> computer_utilization;
  /// Per-computer sojourn histograms merged across all replications
  /// (cell-by-cell; see obs::Histogram::merge), in replication order.
  /// Empty histograms when the obs layer is compiled out.
  std::vector<obs::Histogram> computer_sojourn;
  /// Total jobs generated across all replications.
  std::uint64_t total_jobs = 0;
  /// The raw per-replication results (ordered by replication index).
  std::vector<SimRunResult> runs;
};

/// Runs `config.replications` independent simulations of `profile` and
/// reduces them. Deterministic for a fixed config regardless of thread
/// count (replication r always uses stream family r).
[[nodiscard]] ReplicatedResult replicate(const core::Instance& inst,
                                         const core::StrategyProfile& profile,
                                         const ReplicationConfig& config = {});

}  // namespace nashlb::simmodel
