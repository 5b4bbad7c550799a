#include "simmodel/replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace nashlb::simmodel {

ReplicatedResult replicate(const core::Instance& inst,
                           const core::StrategyProfile& profile,
                           const ReplicationConfig& config) {
  if (config.replications < 2) {
    throw std::invalid_argument(
        "replicate: need at least two replications for intervals");
  }
  const std::size_t r_total = config.replications;
  std::vector<SimRunResult> runs(r_total);
  // One metrics shard per replication: the shard is private to the
  // worker while the run executes, and the shards merge below — after
  // the join, in replication order — so the reduced registry is
  // identical whatever the thread count.
  std::vector<obs::Registry> shards(config.metrics != nullptr ? r_total : 0);

  const std::size_t workers =
      std::min(util::resolve_threads(config.threads), r_total);

  // Replication r is fully determined by its index (stream family r),
  // so each pool index computes the same run wherever it is scheduled.
  util::ThreadPool pool(workers);
  pool.parallel_for(0, r_total, 1, [&](std::size_t r, std::size_t) {
    SimConfig cfg = config.base;
    cfg.replication = r;
    cfg.metrics = shards.empty() ? nullptr : &shards[r];
    runs[r] = simulate(inst, profile, cfg);
  });

  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  ReplicatedResult out;
  out.user_response.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<double> means;
    means.reserve(r_total);
    for (const SimRunResult& run : runs) {
      means.push_back(run.user_mean_response[j]);
    }
    out.user_response.push_back(stats::t_interval(means, config.confidence));
  }
  {
    std::vector<double> means;
    means.reserve(r_total);
    for (const SimRunResult& run : runs) {
      means.push_back(run.overall_mean_response);
    }
    out.overall_response = stats::t_interval(means, config.confidence);
  }
  out.computer_utilization.assign(n, 0.0);
  out.computer_sojourn.assign(n, obs::Histogram{});
  for (const SimRunResult& run : runs) {
    out.total_jobs += run.jobs_generated;
    for (std::size_t i = 0; i < n; ++i) {
      out.computer_utilization[i] +=
          run.computer_utilization[i] / static_cast<double>(r_total);
      if (obs::kEnabled && i < run.computer_sojourn.size()) {
        out.computer_sojourn[i].merge(run.computer_sojourn[i]);
      }
    }
  }
  if (config.metrics != nullptr) {
    for (const obs::Registry& shard : shards) config.metrics->merge(shard);
  }
  out.runs = std::move(runs);
  return out;
}

}  // namespace nashlb::simmodel
