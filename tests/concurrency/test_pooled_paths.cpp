// Every code path that runs on util::ThreadPool with more than one
// worker, each pinned to its serial result bit for bit: the pooled
// Jacobi round (per user, in class mode, and on the diverging round the
// convergence probe records) and the pooled replications. These tests
// share the test_concurrency binary with the pool's own tests
// (test_parallel.cpp), and tools/check_tsan.sh runs that binary under
// ThreadSanitizer, so each pooled path gets both a race check and a
// determinism check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/dynamics.hpp"
#include "core/user_classes.hpp"
#include "obs/convergence.hpp"
#include "simmodel/replication.hpp"
#include "support/fixtures.hpp"
#include "workload/configs.hpp"

namespace nashlb::core {
namespace {

using test_support::equal_demand_instance;
using test_support::expect_bitwise_equal;
using test_support::log_uniform_instance;
using test_support::ProbeRun;
using test_support::run_with_probe;

// --- pooled Jacobi round (core/dynamics.cpp) -----------------------------

TEST(Dynamics, JacobiIsBitwiseIdenticalAcrossThreadCounts) {
  // The central determinism claim: a pooled Jacobi round reads only the
  // frozen loads and the user's own row, so every thread count — and the
  // serial path — must produce the same bits, not just the same limits.
  const Instance inst = equal_demand_instance(16, 0.5);
  DynamicsOptions base;
  base.order = UpdateOrder::Simultaneous;
  base.tolerance = 1e-10;
  base.max_iterations = 300;
  base.threads = 1;
  const DynamicsResult serial = best_reply_dynamics(inst, base);
  for (std::size_t threads : {2u, 4u, 8u}) {
    DynamicsOptions opts = base;
    opts.threads = threads;
    const DynamicsResult pooled = best_reply_dynamics(inst, opts);
    EXPECT_EQ(pooled.iterations, serial.iterations) << threads << " threads";
    EXPECT_EQ(pooled.converged, serial.converged) << threads << " threads";
    EXPECT_EQ(pooled.profile.max_difference(serial.profile), 0.0)
        << threads << " threads";
    ASSERT_EQ(pooled.norm_history.size(), serial.norm_history.size());
    for (std::size_t r = 0; r < serial.norm_history.size(); ++r) {
      EXPECT_EQ(pooled.norm_history[r], serial.norm_history[r])
          << threads << " threads, round " << r + 1;
    }
  }
}

TEST(Dynamics, JacobiAutoThreadsMatchesSerialBitwise) {
  // threads = 0 resolves via NASHLB_THREADS / hardware concurrency;
  // whatever it picks, the bits must not move.
  const Instance inst = equal_demand_instance(8, 0.6);
  DynamicsOptions serial;
  serial.order = UpdateOrder::Simultaneous;
  serial.tolerance = 1e-9;
  serial.max_iterations = 300;
  DynamicsOptions autod = serial;
  autod.threads = 0;
  const DynamicsResult a = best_reply_dynamics(inst, serial);
  const DynamicsResult b = best_reply_dynamics(inst, autod);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.profile.max_difference(b.profile), 0.0);
}

TEST(Dynamics, PooledJacobiDivergenceIsDetectedIdentically) {
  // Near saturation Jacobi overshoots; the pooled feasibility scan must
  // flag the same round the serial scan does.
  const Instance inst = equal_demand_instance(12, 0.95);
  DynamicsOptions serial;
  serial.order = UpdateOrder::Simultaneous;
  serial.max_iterations = 50;
  serial.tolerance = 1e-12;
  DynamicsOptions pooled = serial;
  pooled.threads = 4;
  const DynamicsResult a = best_reply_dynamics(inst, serial);
  const DynamicsResult b = best_reply_dynamics(inst, pooled);
  EXPECT_EQ(a.diverged, b.diverged);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.profile.max_difference(b.profile), 0.0);
}

// --- pooled class-mode round (core/user_classes.cpp) ---------------------

TEST(UserClasses, SingletonPooledJacobiBitwiseMatchesPerUserSolver) {
  const Instance inst = log_uniform_instance(32, 9);
  const UserClassPartition part = UserClassPartition::singletons(inst);
  DynamicsOptions opts;
  opts.order = UpdateOrder::Simultaneous;
  opts.tolerance = 1e-7;
  opts.threads = 4;
  const DynamicsResult per_user = best_reply_dynamics(inst, opts);
  opts.classes = &part;
  const DynamicsResult via_classes = best_reply_dynamics(inst, opts);
  expect_bitwise_equal(per_user, via_classes);
}

// --- the probe on a diverging pooled round (core::RoundRecorder) ---------

TEST(ConvergenceWiring, DivergedJacobiRecordsTheBlowUpRow) {
  // Table 1 at 60% utilization: the simultaneous (Jacobi) update is the
  // documented divergence case (bench P5, ablation A3). The probe must
  // record the blow-up round with non-finite certificates instead of
  // aborting, and the pooled round must record the serial round's rows
  // bit for bit.
  const core::Instance inst = workload::table1_instance(0.6);
  core::DynamicsOptions opts;
  opts.order = core::UpdateOrder::Simultaneous;
  const ProbeRun serial = run_with_probe(inst, opts);
  opts.threads = 4;
  const ProbeRun pooled = run_with_probe(inst, opts);
  if constexpr (obs::kEnabled) {
    for (const ProbeRun* run : {&serial, &pooled}) {
      ASSERT_TRUE(run->result.diverged);
      ASSERT_EQ(run->probe.size(), run->result.iterations);
      const auto& last = run->probe.rows().back();
      EXPECT_TRUE(std::isnan(last.potential));  // overloaded computer
      EXPECT_FALSE(std::isfinite(last.overall_cost));
    }
    ASSERT_EQ(pooled.probe.size(), serial.probe.size());
    const auto same_bits = [](double a, double b) {
      return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (std::size_t k = 0; k < serial.probe.size(); ++k) {
      const auto& a = serial.probe.rows()[k];
      const auto& b = pooled.probe.rows()[k];
      EXPECT_EQ(a.round, b.round);
      EXPECT_TRUE(same_bits(a.norm, b.norm)) << "round " << a.round;
      EXPECT_TRUE(same_bits(a.eps_nash_gap, b.eps_nash_gap));
      EXPECT_TRUE(same_bits(a.potential, b.potential));
      EXPECT_TRUE(same_bits(a.overall_cost, b.overall_cost));
      EXPECT_EQ(a.active_set_churn, b.active_set_churn);
      EXPECT_TRUE(same_bits(a.util_spread, b.util_spread));
    }
  }
}

}  // namespace
}  // namespace nashlb::core

namespace nashlb::simmodel {
namespace {

using test_support::quick_replication_config;
using test_support::two_user_instance;

// --- pooled replications (simmodel/replication.cpp) ----------------------

TEST(Replication, DeterministicAcrossThreadCounts) {
  const core::Instance inst = two_user_instance();
  const core::StrategyProfile s = core::StrategyProfile::proportional(inst);
  ReplicationConfig seq = quick_replication_config(4);
  seq.base.horizon = 500.0;
  seq.threads = 1;
  ReplicationConfig par = seq;
  par.threads = 4;
  const ReplicatedResult a = replicate(inst, s, seq);
  const ReplicatedResult b = replicate(inst, s, par);
  EXPECT_DOUBLE_EQ(a.overall_response.mean, b.overall_response.mean);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(a.runs[r].jobs_generated, b.runs[r].jobs_generated);
    EXPECT_DOUBLE_EQ(a.runs[r].overall_mean_response,
                     b.runs[r].overall_mean_response);
  }
}

}  // namespace
}  // namespace nashlb::simmodel
