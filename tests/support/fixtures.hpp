// Instances, configs and runners shared by the tests that pin a pooled
// code path twice: in their layer's binary (test_core, test_obs,
// test_system) and in test_concurrency, which tools/check_tsan.sh runs
// under ThreadSanitizer. One definition each, so the copies cannot drift.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>

#include "core/dynamics.hpp"
#include "obs/convergence.hpp"
#include "simmodel/replication.hpp"
#include "stats/rng.hpp"

namespace nashlb::test_support {

/// 6 computers (10, 10, 20, 50, 100, 100 jobs/s), `users` users with
/// equal demands at the given utilization.
inline core::Instance equal_demand_instance(std::size_t users,
                                            double utilization) {
  core::Instance inst;
  inst.mu = {10.0, 10.0, 20.0, 50.0, 100.0, 100.0};
  const double cap = std::accumulate(inst.mu.begin(), inst.mu.end(), 0.0);
  inst.phi.assign(users, utilization * cap / static_cast<double>(users));
  return inst;
}

/// 8 computers in the Table-1 speed classes, m users with log-uniform
/// demands spanning ~20x, at 60% utilization.
inline core::Instance log_uniform_instance(std::size_t m,
                                           std::uint64_t seed) {
  core::Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0, 10.0, 20.0, 50.0, 100.0};
  const double cap = std::accumulate(inst.mu.begin(), inst.mu.end(), 0.0);
  stats::Xoshiro256 rng(seed);
  inst.phi.resize(m);
  double total = 0.0;
  for (double& phi : inst.phi) {
    phi = std::exp(rng.next_double() * std::log(20.0));
    total += phi;
  }
  for (double& phi : inst.phi) phi *= 0.6 * cap / total;
  inst.validate();
  return inst;
}

/// Two dynamics runs agree bit for bit: outcome, every round's norm and
/// every user's response time.
inline void expect_bitwise_equal(const core::DynamicsResult& a,
                                 const core::DynamicsResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.profile.max_difference(b.profile), 0.0);
  ASSERT_EQ(a.norm_history.size(), b.norm_history.size());
  for (std::size_t l = 0; l < a.norm_history.size(); ++l) {
    EXPECT_EQ(a.norm_history[l], b.norm_history[l]) << "round " << l + 1;
  }
  ASSERT_EQ(a.user_times.size(), b.user_times.size());
  for (std::size_t j = 0; j < a.user_times.size(); ++j) {
    EXPECT_EQ(a.user_times[j], b.user_times[j]) << "user " << j;
  }
}

struct ProbeRun {
  obs::ConvergenceProbe probe;
  core::DynamicsResult result;
};

/// Runs the dynamics with a fresh convergence probe attached.
inline ProbeRun run_with_probe(const core::Instance& inst,
                               core::DynamicsOptions opts) {
  obs::ConvergenceProbe probe;
  opts.probe = &probe;
  core::DynamicsResult res = core::best_reply_dynamics(inst, opts);
  return {std::move(probe), std::move(res)};
}

/// Two computers (10 and 5 jobs/s), two users at 40% utilization.
inline core::Instance two_user_instance() {
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {4.0, 2.0};
  return inst;
}

/// Short replications: horizon 2000, warm-up 100.
inline simmodel::ReplicationConfig quick_replication_config(
    std::size_t reps = 5) {
  simmodel::ReplicationConfig cfg;
  cfg.base.horizon = 2000.0;
  cfg.base.warmup = 100.0;
  cfg.replications = reps;
  return cfg;
}

}  // namespace nashlb::test_support
