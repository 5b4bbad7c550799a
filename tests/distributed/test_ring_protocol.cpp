#include "distributed/ring_protocol.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/equilibrium.hpp"
#include "workload/configs.hpp"

namespace nashlb::distributed {
namespace {

core::Instance instance(std::size_t users = 5, double util = 0.6) {
  core::Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  const double cap = std::accumulate(inst.mu.begin(), inst.mu.end(), 0.0);
  inst.phi.assign(users, util * cap / static_cast<double>(users));
  return inst;
}

TEST(RingProtocol, ConvergesToNashEquilibrium) {
  const core::Instance inst = instance();
  RingOptions opts;
  opts.tolerance = 1e-8;
  const RingResult res = run_ring_protocol(inst, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.profile.is_feasible(inst));
  EXPECT_TRUE(core::is_nash_equilibrium(inst, res.profile, 1e-6));
}

TEST(RingProtocol, MatchesInMemoryDynamicsExactly) {
  // With exact monitoring the protocol performs the same best replies in
  // the same order as the in-memory dynamics: same rounds, same profile,
  // same norm trace (V2 in DESIGN.md).
  const core::Instance inst = instance(6, 0.7);
  const double eps = 1e-7;

  RingOptions ropts;
  ropts.tolerance = eps;
  ropts.init = core::Initialization::Proportional;
  const RingResult ring = run_ring_protocol(inst, ropts);

  core::DynamicsOptions dopts;
  dopts.tolerance = eps;
  dopts.init = core::Initialization::Proportional;
  const core::DynamicsResult mem = core::best_reply_dynamics(inst, dopts);

  ASSERT_TRUE(ring.converged);
  ASSERT_TRUE(mem.converged);
  EXPECT_EQ(ring.rounds, mem.iterations);
  EXPECT_LT(ring.profile.max_difference(mem.profile), 1e-12);
  ASSERT_EQ(ring.norm_history.size(), mem.norm_history.size());
  for (std::size_t l = 0; l < mem.norm_history.size(); ++l) {
    EXPECT_NEAR(ring.norm_history[l], mem.norm_history[l], 1e-12);
  }
}

TEST(RingProtocol, Nash0AlsoMatchesInMemory) {
  const core::Instance inst = instance(4, 0.5);
  RingOptions ropts;
  ropts.init = core::Initialization::Zero;
  ropts.tolerance = 1e-6;
  const RingResult ring = run_ring_protocol(inst, ropts);
  core::DynamicsOptions dopts;
  dopts.init = core::Initialization::Zero;
  dopts.tolerance = 1e-6;
  const core::DynamicsResult mem = core::best_reply_dynamics(inst, dopts);
  ASSERT_TRUE(ring.converged);
  EXPECT_EQ(ring.rounds, mem.iterations);
  EXPECT_LT(ring.profile.max_difference(mem.profile), 1e-12);
}

TEST(RingProtocol, MessageCountIsRoundsTimesUsersPlusStopWave) {
  // Each round passes the token m times (user 0 -> ... -> back to 0);
  // the STOP wave adds m-1 forwards. A single user passes the token to
  // itself, so m = 1 follows the same count.
  for (const std::size_t m : {std::size_t{5}, std::size_t{1}}) {
    const core::Instance inst = instance(m);
    RingOptions opts;
    opts.tolerance = 1e-6;
    const RingResult res = run_ring_protocol(inst, opts);
    ASSERT_TRUE(res.converged) << "m=" << m;
    EXPECT_EQ(res.messages, res.rounds * m + (m - 1)) << "m=" << m;
  }
}

TEST(RingProtocol, FinishTimeScalesWithLatency) {
  const core::Instance inst = instance(5);
  RingOptions fast;
  fast.tolerance = 1e-6;
  fast.link_latency = 1e-4;
  RingOptions slow = fast;
  slow.link_latency = 1e-1;
  const RingResult rf = run_ring_protocol(inst, fast);
  const RingResult rs = run_ring_protocol(inst, slow);
  ASSERT_TRUE(rf.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_EQ(rf.rounds, rs.rounds);  // latency does not change the math
  EXPECT_GT(rs.finish_time, rf.finish_time * 10.0);
}

TEST(RingProtocol, SingleUserDegenerates) {
  core::Instance inst;
  inst.mu = {10.0, 5.0};
  inst.phi = {7.0};
  RingOptions opts;
  opts.tolerance = 1e-10;
  const RingResult res = run_ring_protocol(inst, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(core::is_nash_equilibrium(inst, res.profile, 1e-8));
}

TEST(RingProtocol, RoundCapReportsNonConvergence) {
  const core::Instance inst = instance(6, 0.8);
  RingOptions opts;
  opts.tolerance = 0.0;  // unreachable
  opts.max_rounds = 4;
  const RingResult res = run_ring_protocol(inst, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.rounds, 4u);
}

TEST(RingProtocol, NoisyMonitoringStillLandsNearEquilibrium) {
  // A6: estimation noise perturbs each reply, but the dynamics remains in
  // a neighbourhood of the exact equilibrium.
  const core::Instance inst = instance(4, 0.5);
  RingOptions exact;
  exact.tolerance = 1e-8;
  const RingResult clean = run_ring_protocol(inst, exact);
  ASSERT_TRUE(clean.converged);

  RingOptions noisy = exact;
  noisy.noise_sigma = 0.02;
  noisy.tolerance = 1e-3;  // noise floors the achievable norm
  noisy.max_rounds = 200;
  const RingResult res = run_ring_protocol(inst, noisy);
  // Converged or not, the final profile must stay feasible and close.
  EXPECT_TRUE(res.profile.is_feasible(inst));
  EXPECT_LT(res.profile.max_difference(clean.profile), 0.2);
}

TEST(RingProtocol, Table1SystemConverges) {
  const core::Instance inst = workload::table1_instance(0.6);
  RingOptions opts;
  opts.tolerance = 1e-4;
  const RingResult res = run_ring_protocol(inst, opts);
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(core::is_nash_equilibrium(inst, res.profile, 1e-3));
}

TEST(RingProtocol, RejectsNegativeLatency) {
  const core::Instance inst = instance();
  RingOptions opts;
  opts.link_latency = -1.0;
  EXPECT_THROW((void)run_ring_protocol(inst, opts), std::invalid_argument);
}

}  // namespace
}  // namespace nashlb::distributed
