#include "simmodel/replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace nashlb::simmodel {

namespace {

/// §4.1: "The standard error is less than 5% at the 95% confidence level."
constexpr double kConfidence = 0.95;

}  // namespace

ReplicatedResult replicate(const core::Instance& inst,
                           const core::StrategyProfile& profile,
                           const ReplicationConfig& config) {
  if (config.replications < 2) {
    throw std::invalid_argument(
        "replicate: need at least two replications for intervals");
  }
  const std::size_t r_total = config.replications;
  std::vector<SimRunResult> runs(r_total);

  const std::size_t workers =
      std::min(util::resolve_threads(config.threads), r_total);

  // Replication r is fully determined by its index (stream family r),
  // so each pool index computes the same run wherever it is scheduled.
  util::ThreadPool pool(workers);
  pool.parallel_for(0, r_total, 1, [&](std::size_t r, std::size_t) {
    SimConfig cfg = config.base;
    cfg.replication = r;
    runs[r] = simulate(inst, profile, cfg);
  });

  const std::size_t n = inst.num_computers();
  ReplicatedResult out;
  {
    std::vector<double> means;
    means.reserve(r_total);
    for (const SimRunResult& run : runs) {
      means.push_back(run.overall_mean_response);
    }
    out.overall_response = stats::t_interval(means, kConfidence);
  }
  out.computer_sojourn.assign(n, obs::Histogram{});
  for (const SimRunResult& run : runs) {
    out.total_jobs += run.jobs_generated;
    for (std::size_t i = 0; i < n; ++i) {
      if (obs::kEnabled && i < run.computer_sojourn.size()) {
        out.computer_sojourn[i].merge(run.computer_sojourn[i]);
      }
    }
  }
  out.runs = std::move(runs);
  return out;
}

}  // namespace nashlb::simmodel
