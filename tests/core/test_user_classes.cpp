// User-class aggregation (core/user_classes): partition construction,
// the expanded loads, the eps-Nash certificate, and the structural pin
// that the singleton partition makes the class dynamics bitwise identical
// to the per-user solver. See docs/SCALING.md.
#include "core/user_classes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "stats/rng.hpp"
#include "support/fixtures.hpp"
#include "support/oracles.hpp"

namespace nashlb::core {
namespace {

using test_support::expand;
using test_support::expect_bitwise_equal;
using test_support::log_uniform_instance;

/// A system whose demands repeat a short cycle exactly — the natural
/// input of the `exact` grouping mode.
Instance repeated_instance(std::size_t m) {
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  const double cap = std::accumulate(inst.mu.begin(), inst.mu.end(), 0.0);
  static const double kCycle[3] = {1.0, 2.0, 5.0};
  inst.phi.resize(m);
  double total = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    inst.phi[j] = kCycle[j % 3];
    total += inst.phi[j];
  }
  for (double& phi : inst.phi) phi *= 0.6 * cap / total;
  inst.validate();
  return inst;
}

TEST(UserClasses, ExactGroupsEqualDemandsAndKeepsWeightInvariant) {
  const Instance inst = repeated_instance(30);
  const UserClassPartition part = UserClassPartition::exact(inst);
  EXPECT_EQ(part.num_classes(), 3u);
  EXPECT_EQ(part.num_users(), 30u);
  EXPECT_EQ(part.max_abs_deviation(), 0.0);
  EXPECT_EQ(part.max_rel_deviation(), 0.0);
  const double phi_total = inst.total_arrival_rate();
  EXPECT_NEAR(part.total_weight(), phi_total, 1e-9 * phi_total);
  for (std::size_t k = 0; k < part.num_classes(); ++k) {
    const UserClass& cls = part.classes()[k];
    EXPECT_EQ(part.member_counts()[k], 10.0);
    EXPECT_DOUBLE_EQ(cls.phi_min, cls.phi_max);
    EXPECT_DOUBLE_EQ(cls.rep_phi, cls.phi_min);
  }
  // Every user maps to the class of its own demand.
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_EQ(part.classes()[part.class_of(j)].rep_phi, inst.phi[j]);
  }
}

TEST(UserClasses, QuantizedRespectsWidthAndClassCap) {
  const Instance inst = log_uniform_instance(400, 7);
  const UserClassPartition fine = UserClassPartition::quantized(inst, 1e-3);
  // Geometric cells of relative width eps: every member sits within
  // roughly eps of its representative.
  EXPECT_LE(fine.max_rel_deviation(), 1e-3);
  EXPECT_GT(fine.num_classes(), 1u);
  EXPECT_LT(fine.num_classes(), inst.num_users());

  const UserClassPartition capped =
      UserClassPartition::quantized(inst, 1e-6, 8);
  EXPECT_LE(capped.num_classes(), 8u);
  const double phi_total = inst.total_arrival_rate();
  EXPECT_NEAR(capped.total_weight(), phi_total, 1e-9 * phi_total);
}

TEST(UserClasses, QuantizedRejectsBadWidth) {
  const Instance inst = log_uniform_instance(10, 1);
  EXPECT_THROW(static_cast<void>(UserClassPartition::quantized(inst, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(UserClassPartition::quantized(inst, -1.0)),
               std::invalid_argument);
  // 1 + 1e-17 == 1: the width rounds away, so no cell ratio exists.
  EXPECT_THROW(static_cast<void>(UserClassPartition::quantized(inst, 1e-17)),
               std::invalid_argument);
  // phi_max / phi_min overflows to inf: the cells cannot be counted.
  Instance spread;
  spread.mu = {1e12};
  spread.phi = {5e-324, 1e10};
  EXPECT_THROW(static_cast<void>(UserClassPartition::quantized(spread, 0.1)),
               std::invalid_argument);
}

TEST(UserClasses, FactoriesRejectInvalidDemands) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> bad = {
      {},
      {1.0, std::numeric_limits<double>::quiet_NaN(), 2.0},
      {1.0, kInf, 2.0},
      {1.0, -2.0, 3.0},
      {1.0, 0.0, 3.0},
  };
  for (std::size_t c = 0; c < bad.size(); ++c) {
    Instance inst;
    inst.mu = {10.0, 20.0};
    inst.phi = bad[c];
    SCOPED_TRACE(testing::Message() << "case " << c);
    EXPECT_THROW(static_cast<void>(UserClassPartition::exact(inst)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(UserClassPartition::quantized(inst, 0.1)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(UserClassPartition::singletons(inst)),
                 std::invalid_argument);
  }
}

/// The sorting construction `quantized` replaced, kept as the reference:
/// order users by (phi, index), split wherever the cell changes, re-sort
/// each group by user index, then walk every member for the class stats.
struct ReferencePartition {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<UserClass> classes;
  std::vector<std::size_t> class_of;
  double total_weight = 0.0;
  double max_abs_dev = 0.0;
  double max_rel_dev = 0.0;
};

ReferencePartition sorted_reference(const Instance& inst, double eps_phi,
                                    std::size_t max_classes) {
  std::vector<std::size_t> order(inst.num_users());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&inst](std::size_t a, std::size_t b) {
    if (inst.phi[a] != inst.phi[b]) return inst.phi[a] < inst.phi[b];
    return a < b;
  });
  const double lo = inst.phi[order.front()];
  const double hi = inst.phi[order.back()];
  double ratio = 1.0 + eps_phi;
  if (max_classes > 0 && hi > lo) {
    ratio = std::max(ratio, std::pow(hi / lo, 1.0 / static_cast<double>(
                                                   max_classes)) *
                                (1.0 + 1e-12));
  }
  const double log_ratio = std::log(ratio);
  ReferencePartition ref;
  long long current = -1;
  for (std::size_t j : order) {
    long long cell = hi > lo ? static_cast<long long>(std::floor(
                                   std::log(inst.phi[j] / lo) / log_ratio))
                             : 0;
    if (max_classes > 0 && cell >= static_cast<long long>(max_classes)) {
      cell = static_cast<long long>(max_classes) - 1;
    }
    if (ref.groups.empty() || cell != current) {
      ref.groups.emplace_back();
      current = cell;
    }
    ref.groups.back().push_back(j);
  }
  ref.class_of.resize(inst.num_users());
  for (std::vector<std::size_t>& g : ref.groups) {
    std::sort(g.begin(), g.end());
    UserClass cls;
    cls.phi_min = std::numeric_limits<double>::infinity();
    cls.phi_max = -std::numeric_limits<double>::infinity();
    for (std::size_t j : g) {
      ref.class_of[j] = ref.classes.size();
      cls.weight += inst.phi[j];
      if (inst.phi[j] < cls.phi_min) {
        cls.phi_min = inst.phi[j];
        cls.user_min = j;
      }
      if (inst.phi[j] > cls.phi_max) {
        cls.phi_max = inst.phi[j];
        cls.user_max = j;
      }
    }
    cls.rep_phi = cls.phi_min == cls.phi_max
                      ? cls.phi_min
                      : cls.weight / static_cast<double>(g.size());
    for (std::size_t j : g) {
      const double dev = std::fabs(inst.phi[j] - cls.rep_phi);
      ref.max_abs_dev = std::max(ref.max_abs_dev, dev);
      ref.max_rel_dev = std::max(ref.max_rel_dev, dev / cls.rep_phi);
    }
    ref.total_weight += cls.weight;
    ref.classes.push_back(cls);
  }
  return ref;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(UserClasses, QuantizedMatchesSortedReference) {
  struct Width {
    double eps_phi;
    std::size_t max_classes;
  };
  // 1e-12 uncapped spans up to ~1.4e13 cells, far more than m: the wide
  // path that sorts the distinct cells instead of tabulating the range.
  const Width widths[] = {{0.1, 0}, {1e-3, 0}, {1e-3, 512}, {1e-6, 8},
                          {1e-12, 0}};
  for (const std::size_t m : {1u, 2u, 400u, 5000u}) {
    for (const double spread : {1.0, 20.0, 1e6}) {
      for (const bool ties : {false, true}) {
        Instance inst;
        inst.mu = {1e12};
        inst.phi.resize(m);
        stats::Xoshiro256 rng(m * 31 + static_cast<std::size_t>(ties));
        // With ties, users past the first m/8 repeat an earlier demand.
        const std::size_t distinct = ties ? std::max<std::size_t>(1, m / 8)
                                          : m;
        for (std::size_t j = 0; j < m; ++j) {
          inst.phi[j] =
              j < distinct
                  ? std::exp(rng.next_double() * std::log(spread))
                  : inst.phi[j % distinct];
        }
        for (const Width& w : widths) {
          SCOPED_TRACE(testing::Message()
                       << "m=" << m << " spread=" << spread << " ties="
                       << ties << " eps=" << w.eps_phi
                       << " K=" << w.max_classes);
          const UserClassPartition part =
              UserClassPartition::quantized(inst, w.eps_phi, w.max_classes);
          const ReferencePartition ref =
              sorted_reference(inst, w.eps_phi, w.max_classes);
          ASSERT_EQ(part.num_classes(), ref.groups.size());
          for (std::size_t k = 0; k < ref.groups.size(); ++k) {
            const UserClass& got = part.classes()[k];
            const UserClass& want = ref.classes[k];
            EXPECT_EQ(bits(got.weight), bits(want.weight)) << "class " << k;
            EXPECT_EQ(bits(got.rep_phi), bits(want.rep_phi)) << "class " << k;
            EXPECT_EQ(bits(got.phi_min), bits(want.phi_min)) << "class " << k;
            EXPECT_EQ(bits(got.phi_max), bits(want.phi_max)) << "class " << k;
            EXPECT_EQ(got.user_min, want.user_min) << "class " << k;
            EXPECT_EQ(got.user_max, want.user_max) << "class " << k;
            EXPECT_EQ(bits(part.rep_phi()[k]), bits(want.rep_phi));
            EXPECT_EQ(part.member_counts()[k],
                      static_cast<double>(ref.groups[k].size()));
          }
          for (std::size_t j = 0; j < m; ++j) {
            ASSERT_EQ(part.class_of(j), ref.class_of[j]) << "user " << j;
          }
          EXPECT_EQ(bits(part.total_weight()), bits(ref.total_weight));
          EXPECT_EQ(bits(part.max_abs_deviation()), bits(ref.max_abs_dev));
          EXPECT_EQ(bits(part.max_rel_deviation()), bits(ref.max_rel_dev));
        }
      }
    }
  }
}

TEST(UserClasses, ExpandedLoadsMatchExpandedProfile) {
  const Instance inst = log_uniform_instance(100, 5);
  const UserClassPartition part = UserClassPartition::quantized(inst, 0.05);
  const Instance agg = part.aggregate_instance(inst);
  const StrategyProfile cls = StrategyProfile::proportional(agg);
  const std::vector<double> fast = part.expanded_loads(inst, cls);
  const std::vector<double> slow = expand(part, cls).loads(inst);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-9 * (1.0 + slow[i]));
  }
}

// --- the structural pin: singleton class dynamics == per-user solver ----

TEST(UserClasses, SingletonDynamicsBitwiseMatchesPerUserSolver) {
  for (const std::uint64_t seed : {11ull, 42ull, 2002ull}) {
    const Instance inst = log_uniform_instance(24, seed);
    const UserClassPartition part = UserClassPartition::singletons(inst);
    ASSERT_EQ(part.num_classes(), part.num_users());
    for (const UpdateOrder order : {UpdateOrder::RoundRobin,
                                    UpdateOrder::Simultaneous,
                                    UpdateOrder::RandomOrder}) {
      for (const Initialization init :
           {Initialization::Proportional, Initialization::Zero}) {
        DynamicsOptions opts;
        opts.init = init;
        opts.order = order;
        opts.tolerance = 1e-7;
        const DynamicsResult per_user = best_reply_dynamics(inst, opts);
        opts.classes = &part;
        const DynamicsResult via_classes = best_reply_dynamics(inst, opts);
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " order="
                     << static_cast<int>(order)
                     << " init=" << static_cast<int>(init));
        expect_bitwise_equal(per_user, via_classes);
      }
    }
  }
}

TEST(UserClasses, StartingProfileOverloadRunsAtClassLevel) {
  const Instance inst = log_uniform_instance(60, 13);
  const UserClassPartition part = UserClassPartition::quantized(inst, 0.05);
  const Instance agg = part.aggregate_instance(inst);
  DynamicsOptions opts;
  opts.tolerance = 1e-7;
  opts.classes = &part;
  const DynamicsResult res = best_reply_dynamics_from(
      inst, StrategyProfile::proportional(agg), opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.profile.num_users(), part.num_classes());
  // A per-user-shaped start is a contract violation in class mode.
  EXPECT_THROW(static_cast<void>(best_reply_dynamics_from(
                   inst, StrategyProfile::proportional(inst), opts)),
               std::invalid_argument);
}

// --- eps-Nash certificate ------------------------------------------------

TEST(UserClasses, ExactClassEquilibriumCertifiesNearZeroEps) {
  const Instance inst = repeated_instance(60);
  const UserClassPartition part = UserClassPartition::exact(inst);
  DynamicsOptions opts;
  opts.tolerance = 1e-10;
  opts.classes = &part;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  ASSERT_TRUE(res.converged);
  const EpsNashCertificate cert = certify_eps_nash(inst, part, res.profile);
  // Exact mode: delta = 0, so the bound collapses to gap_rep / D — tiny
  // at this tolerance — and the expanded profile is a Nash equilibrium.
  EXPECT_LT(cert.eps_nash, 1e-8);
  EXPECT_LT(cert.analytic_bound, 1e-6);
  EXPECT_TRUE(
      is_nash_equilibrium(inst, expand(part, res.profile), 1e-6));
}

TEST(UserClasses, QuantizedCertificateBoundsEveryUsersGain) {
  const Instance inst = log_uniform_instance(200, 21);
  // A deliberately coarse bucketing so the eps is visibly nonzero.
  const UserClassPartition part = UserClassPartition::quantized(inst, 0.1);
  DynamicsOptions opts;
  // Far below the ~1e-2 bucketing error the certificate measures; tighter
  // tolerances hit the dynamics' numerical noise floor on this instance.
  opts.tolerance = 1e-7;
  opts.classes = &part;
  const DynamicsResult res = best_reply_dynamics(inst, opts);
  ASSERT_TRUE(res.converged);
  const EpsNashCertificate cert = certify_eps_nash(inst, part, res.profile);
  ASSERT_TRUE(std::isfinite(cert.analytic_bound));
  EXPECT_GE(cert.eps_nash, 0.0);
  EXPECT_LE(cert.eps_nash, cert.analytic_bound + 1e-9);
  EXPECT_GE(cert.evaluated_members, part.num_classes());

  // The analytic bound must dominate the *brute-force* relative gain of
  // every user, not just the probed bucket extremes.
  const StrategyProfile full = expand(part, res.profile);
  double brute = 0.0;
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    const double gain = best_reply_gain(inst, full, j);
    const double d = user_response_time(inst, full, j);
    ASSERT_TRUE(std::isfinite(d));
    brute = std::max(brute, std::max(gain, 0.0) / d);
  }
  EXPECT_LE(brute, cert.analytic_bound + 1e-9);
}

TEST(UserClasses, FinerBucketsTightenTheCertificate) {
  const Instance inst = log_uniform_instance(300, 33);
  double prev_bound = std::numeric_limits<double>::infinity();
  for (const double eps_phi : {0.2, 0.02, 0.002}) {
    const UserClassPartition part =
        UserClassPartition::quantized(inst, eps_phi);
    DynamicsOptions opts;
    // The finest width is near-singleton granularity, where Gauss–Seidel
    // over 300 crowded users converges slowly — stop well below the
    // bucketing error the certificate measures rather than at a depth
    // the dynamics cannot reach in the round cap.
    opts.tolerance = 1e-5;
    opts.max_iterations = 5000;
    opts.classes = &part;
    const DynamicsResult res = best_reply_dynamics(inst, opts);
    ASSERT_TRUE(res.converged);
    const EpsNashCertificate cert =
        certify_eps_nash(inst, part, res.profile);
    EXPECT_LE(cert.analytic_bound, prev_bound * (1.0 + 1e-6))
        << "eps_phi=" << eps_phi;
    prev_bound = cert.analytic_bound;
  }
  // At the finest width the certificate is comfortably inside 1e-3 — the
  // regime the scale bench gates (see bench/bench_scale.cpp).
  EXPECT_LT(prev_bound, 1e-3);
}

TEST(UserClasses, MismatchedPartitionThrows) {
  const Instance inst = log_uniform_instance(20, 1);
  const Instance other = log_uniform_instance(30, 1);
  const UserClassPartition part = UserClassPartition::singletons(other);
  DynamicsOptions opts;
  opts.classes = &part;
  EXPECT_THROW(static_cast<void>(best_reply_dynamics(inst, opts)),
               std::invalid_argument);
}

}  // namespace
}  // namespace nashlb::core
