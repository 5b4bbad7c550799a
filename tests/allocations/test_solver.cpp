// Heap allocations of the solver's per-move and per-round paths.
//
// The paper's NASH algorithm runs OPTIMAL (Thm 2.2) once per user per
// round, and a round stays O(m·n) only because that per-move path makes
// no heap allocation once its workspace is sized. Each test warms up
// first, then counts the allocations of the calls or rounds that follow.
//
// A checked build (-DNASHLB_CHECK=ON) adds one allocation every
// LoadState::kConsistencyStride commits: the sampled consistency audit
// compares the carried loads with a fresh StrategyProfile::loads vector.
// The expected counts include it exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "core/best_reply.hpp"
#include "core/dynamics.hpp"
#include "core/load_state.hpp"
#include "core/types.hpp"
#include "core/user_classes.hpp"
#include "core/waterfill.hpp"
#include "distributed/ring_protocol.hpp"
#include "support/alloc_counter.hpp"
#include "support/fixtures.hpp"
#include "util/contracts.hpp"
#include "workload/configs.hpp"
#include "workload/random.hpp"

namespace nashlb::core {
namespace {

using test_support::allocations_in;

/// Runs of kRounds and kRounds + 1 rounds leave norm_history with the
/// same capacity (8), so the two runs differ by one round's work alone.
constexpr std::size_t kRounds = 5;

/// Allocations of `commits` commit_row calls after a rebuild: the
/// checked build's consistency audit, once per stride.
std::size_t audit_allocations(std::size_t commits) {
  return util::kCheckEnabled ? commits / LoadState::kConsistencyStride : 0;
}

/// 400 users on 16 computers at 70% load.
Instance peruser_instance() {
  workload::RandomInstanceOptions opts;
  opts.num_computers = 16;
  opts.num_users = 400;
  opts.utilization = 0.7;
  return workload::random_instance(opts);
}

/// Allocations of one run of the dynamics capped at `rounds`. The
/// tolerance -1 is a norm no round can reach.
std::size_t dynamics_allocations(const Instance& inst, DynamicsOptions opts,
                                 std::size_t rounds) {
  opts.tolerance = -1.0;
  opts.max_iterations = rounds;
  std::optional<DynamicsResult> res;
  const std::size_t count =
      allocations_in([&] { res.emplace(best_reply_dynamics(inst, opts)); });
  EXPECT_EQ(res->iterations, rounds);
  EXPECT_FALSE(res->diverged);
  return count;
}

TEST(Allocations, WarmWaterfillsAllocateNothing) {
  const Instance inst = peruser_instance();
  std::vector<double> caps = inst.mu;
  std::vector<double> out(caps.size());
  const double demand = 0.6 * inst.total_capacity();
  WaterfillWorkspace ws;
  (void)waterfill_sqrt_into(caps, demand, out, ws);  // sizes the order
  // Each call first nudges one capacity, so the warm order needs a re-sort.
  const auto calls = [&](auto&& call) {
    return allocations_in([&] {
      for (std::size_t k = 0; k < 100; ++k) {
        caps[(7 * k) % caps.size()] *= k % 2 == 0 ? 1.5 : 1.0 / 1.5;
        call();
      }
    });
  };
  EXPECT_EQ(calls([&] { (void)waterfill_sqrt_into(caps, demand, out, ws); }),
            0u);
  EXPECT_EQ(
      calls([&] { (void)waterfill_linear_into(caps, demand, out, ws); }), 0u);
  EXPECT_EQ(calls([&] { optimal_fractions_into(caps, demand, out, ws); }),
            0u);
}

TEST(Allocations, WarmBestRepliesAllocateNothing) {
  const Instance inst = peruser_instance();
  const StrategyProfile s = StrategyProfile::proportional(inst);
  const LoadState state(inst, s);
  BestReplyWorkspace ws;
  (void)best_reply_into(inst, s, state, 0, ws);  // sizes the workspace
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t j = 0; j < inst.num_users(); ++j) {
                (void)best_reply_into(inst, s, state, j, ws);
              }
            }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t j = 0; j < inst.num_users(); ++j) {
                (void)best_reply_into(inst, s, state, j, 0.5 * inst.phi[j],
                                      ws);
              }
            }),
            0u);
}

TEST(Allocations, WarmClassRepliesAllocateNothingOnBothRoutes) {
  // Exact classes {30, 30, 30}, {40} and {50}: the three-member class
  // takes the symmetric-reply route, the singletons the per-user one.
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0, 10.0, 20.0, 50.0, 100.0};
  inst.phi = {30.0, 30.0, 30.0, 40.0, 50.0};
  const UserClassPartition part = UserClassPartition::exact(inst);
  ASSERT_EQ(part.num_classes(), 3u);
  ASSERT_EQ(part.member_counts()[0], 3.0);
  const Instance agg = part.aggregate_instance(inst);
  const StrategyProfile s = StrategyProfile::proportional(agg);
  const LoadState state(agg, s);
  BestReplyWorkspace ws;
  for (std::size_t k = 0; k < part.num_classes(); ++k) {
    (void)class_reply_into(agg, s, state, k, part, ws);
  }
  for (std::size_t k = 0; k < part.num_classes(); ++k) {
    EXPECT_EQ(allocations_in([&] {
                for (int rep = 0; rep < 50; ++rep) {
                  (void)class_reply_into(agg, s, state, k, part, ws);
                }
              }),
              0u)
        << "class " << k << " of " << part.member_counts()[k] << " members";
  }
}

TEST(Allocations, LoadStatePerMoveCallsAllocateNothing) {
  const Instance inst = peruser_instance();
  const std::size_t m = inst.num_users();
  StrategyProfile s = StrategyProfile::proportional(inst);
  LoadState state(inst, s);
  std::vector<double> avail(inst.num_computers());
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t j = 0; j < m; ++j) {
                state.available_rates(s, j, avail);
              }
            }),
            0u);
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t j = 0; j < m; ++j) {
                state.available_rates(s, j, 0.5 * inst.phi[j], avail);
              }
            }),
            0u);
  double total = 0.0;
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t j = 0; j < m; ++j) {
                total += state.user_response_time(s, j);
              }
            }),
            0u);
  EXPECT_TRUE(std::isfinite(total));
  // Every proportional row is the same, so user 0's row is a valid move
  // for any user.
  const std::vector<double> row(s.row(0).begin(), s.row(0).end());
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t j = 0; j < m; ++j) state.commit_row(s, j, row);
            }),
            audit_allocations(m));
}

TEST(Allocations, FiveHundredMovesAllocateOnlyTheCheckedAudit) {
  const Instance inst = peruser_instance();
  const std::size_t m = inst.num_users();
  StrategyProfile s = StrategyProfile::proportional(inst);
  LoadState state(inst, s);
  BestReplyWorkspace ws;
  double total = 0.0;
  const auto move = [&](std::size_t j) {
    state.commit_row(s, j, best_reply_into(inst, s, state, j, ws));
    total += state.user_response_time(s, j);
  };
  for (std::size_t j = 0; j < m; ++j) move(j);  // one warm round
  state.rebuild(s);  // restarts the audit stride
  EXPECT_EQ(allocations_in([&] {
              for (std::size_t k = 0; k < 500; ++k) move(k % m);
            }),
            audit_allocations(500));
  EXPECT_TRUE(std::isfinite(total));
}

TEST(Allocations, SequentialRoundsAllocateOnlyTheCheckedAudit) {
  // A round rebuilds the loads, then commits one reply per mover.
  const Instance inst = peruser_instance();
  for (const UpdateOrder order :
       {UpdateOrder::RoundRobin, UpdateOrder::RandomOrder}) {
    DynamicsOptions opts;
    opts.order = order;
    EXPECT_EQ(dynamics_allocations(inst, opts, kRounds + 1),
              dynamics_allocations(inst, opts, kRounds) +
                  audit_allocations(inst.num_users()))
        << "order " << static_cast<int>(order);
  }
  const UserClassPartition part = UserClassPartition::quantized(inst, 0.05);
  ASSERT_LT(part.num_classes(), inst.num_users());
  DynamicsOptions opts;
  opts.classes = &part;
  EXPECT_EQ(dynamics_allocations(inst, opts, kRounds + 1),
            dynamics_allocations(inst, opts, kRounds) +
                audit_allocations(part.num_classes()))
      << "class mode";
}

TEST(Allocations, RingRoundsAllocateOnlyTheCheckedAudit) {
  const Instance inst = peruser_instance();
  const auto ring = [&](std::size_t rounds) {
    distributed::RingOptions opts;
    opts.tolerance = -1.0;
    opts.max_rounds = rounds;
    std::size_t completed = 0;
    const std::size_t count = allocations_in(
        [&] { completed = distributed::run_ring_protocol(inst, opts).rounds; });
    EXPECT_EQ(completed, rounds);
    return count;
  };
  EXPECT_EQ(ring(kRounds + 1),
            ring(kRounds) + audit_allocations(inst.num_users()));
}

TEST(Allocations, JacobiRoundsAllocateNothing) {
  // A Jacobi round makes two ThreadPool::parallel_for calls: the replies,
  // then replies_computable and the response time of every user.
  // parallel_for borrows its body instead of wrapping it in a
  // std::function, and a one-worker pool owns no threads, so a round
  // allocates nothing. The 400-user instance diverges in round 1; Table 1
  // at low load does not.
  for (const double rho : {0.1, 0.3}) {
    const Instance inst = workload::table1_instance(rho);
    DynamicsOptions opts;
    opts.order = UpdateOrder::Simultaneous;
    EXPECT_EQ(dynamics_allocations(inst, opts, kRounds + 1),
              dynamics_allocations(inst, opts, kRounds))
        << "rho " << rho;
    const UserClassPartition part = UserClassPartition::exact(inst);
    ASSERT_LT(part.num_classes(), inst.num_users());
    opts.classes = &part;
    EXPECT_EQ(dynamics_allocations(inst, opts, kRounds + 1),
              dynamics_allocations(inst, opts, kRounds))
        << "class mode, rho " << rho;
  }
}

TEST(Allocations, CertificateAllocationsDoNotGrowWithClasses) {
  // certify_eps_nash probes two or three demands per class on one
  // workspace. It allocates the expanded loads and sizes the workspace's
  // three buffers, whatever the class count.
  const Instance inst = test_support::log_uniform_instance(4096, 7);
  for (const std::size_t max_classes : {8u, 64u, 512u}) {
    const UserClassPartition part =
        UserClassPartition::quantized(inst, 1e-4, max_classes);
    const StrategyProfile s =
        StrategyProfile::proportional(part.aggregate_instance(inst));
    std::optional<EpsNashCertificate> cert;
    EXPECT_EQ(
        allocations_in([&] { cert.emplace(certify_eps_nash(inst, part, s)); }),
        4u)
        << part.num_classes() << " classes";
    EXPECT_GE(cert->evaluated_members, part.num_classes());
  }
}

}  // namespace
}  // namespace nashlb::core
