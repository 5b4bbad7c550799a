// Tests for the incremental solver core: LoadState consistency against
// recompute-from-scratch, the allocation-free waterfill/best-reply fast
// paths, and — the load-bearing property — that the rewired
// best_reply_dynamics reproduces the seed implementation (which
// recomputed the aggregate loads from the whole profile on every call)
// exactly: identical iteration counts, profiles within 1e-12, for all
// three update orders and both initializations.
#include "core/load_state.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "core/waterfill.hpp"
#include "stats/rng.hpp"
#include "support/oracles.hpp"
#include "workload/configs.hpp"
#include "workload/random.hpp"

namespace nashlb::core {
namespace {

using test_support::best_reply;
using test_support::user_response_time;

Instance small_instance() {
  Instance inst;
  inst.mu = {10.0, 20.0, 50.0, 100.0};
  inst.phi = {30.0, 20.0, 10.0, 5.0, 5.0};
  return inst;
}

/// A random feasible-ish row on the simplex (positive, sums to 1).
std::vector<double> random_row(std::size_t n, stats::Xoshiro256& rng) {
  std::vector<double> row(n);
  double total = 0.0;
  for (double& f : row) {
    f = rng.next_double_open() + 1e-3;
    total += f;
  }
  for (double& f : row) f /= total;
  return row;
}

TEST(LoadState, MatchesScratchLoadsAfterLongRandomMoveSequence) {
  const Instance inst = small_instance();
  StrategyProfile s = StrategyProfile::proportional(inst);
  LoadState state(inst, s);
  stats::Xoshiro256 rng(0xfeedULL);

  for (int move = 0; move < 5000; ++move) {
    const auto user =
        static_cast<std::size_t>(rng.next_below(inst.num_users()));
    const std::vector<double> row = random_row(inst.num_computers(), rng);
    state.commit_row(s, user, row);
    // The committed row must land in the profile verbatim.
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(s.at(user, i), row[i]);
    }
  }
  // 5000 incremental O(n) updates stay within a hair of the O(m·n)
  // from-scratch recompute...
  EXPECT_LT(state.max_drift(s), 1e-10);
  // ...and a rebuild makes them bitwise identical.
  state.rebuild(s);
  EXPECT_EQ(state.max_drift(s), 0.0);
}

TEST(LoadState, AvailableRatesMatchProfileComputation) {
  const Instance inst = small_instance();
  StrategyProfile s = StrategyProfile::proportional(inst);
  const LoadState state(inst, s);
  std::vector<double> fast(inst.num_computers());
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    state.available_rates(s, j, fast);
    const std::vector<double> slow = s.available_rates(inst, j);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], slow[i], 1e-12) << "user " << j << " computer "
                                           << i;
    }
  }
}

TEST(LoadState, UserResponseTimeMatchesCostModel) {
  const Instance inst = small_instance();
  const StrategyProfile s = StrategyProfile::proportional(inst);
  const LoadState state(inst, s);
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    EXPECT_NEAR(state.user_response_time(s, j),
                user_response_time(inst, s, j), 1e-12);
  }
}

TEST(LoadState, RejectsDimensionMismatches) {
  const Instance inst = small_instance();
  const StrategyProfile s = StrategyProfile::proportional(inst);
  LoadState state(inst, s);
  StrategyProfile wrong(inst.num_users() + 1, inst.num_computers());
  EXPECT_THROW(state.rebuild(wrong), std::invalid_argument);
  std::vector<double> small_buf(inst.num_computers() - 1);
  EXPECT_THROW(state.available_rates(s, 0, small_buf),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Allocation-free waterfill fast path.

TEST(WaterfillWorkspace, IntoVariantsMatchAllocatingOnesBitwise) {
  stats::Xoshiro256 rng(0xabcdULL);
  WaterfillWorkspace ws_sqrt;
  WaterfillWorkspace ws_lin;
  std::vector<double> caps(12);
  std::vector<double> out(12);
  for (double& c : caps) c = 1.0 + 99.0 * rng.next_double_open();

  // Repeated calls with slowly drifting capacities: the workspace's order
  // is reused (incremental re-sort) and must still reproduce the fresh
  // stable sort's allocation exactly, bit for bit.
  for (int round = 0; round < 200; ++round) {
    double total = 0.0;
    for (double c : caps) total += c;
    const double demand = total * (0.05 + 0.9 * rng.next_double_open());

    const WaterfillResult ref = waterfill_sqrt(caps, demand);
    const WaterfillInfo info = waterfill_sqrt_into(caps, demand, out, ws_sqrt);
    EXPECT_EQ(info.active_count, ref.active_count);
    EXPECT_EQ(info.level, ref.level);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], ref.lambda[i]) << "round " << round;
    }

    const WaterfillResult lref = waterfill_linear(caps, demand);
    const WaterfillInfo linfo =
        waterfill_linear_into(caps, demand, out, ws_lin);
    EXPECT_EQ(linfo.active_count, lref.active_count);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], lref.lambda[i]);
    }

    // Drift each capacity a little, as consecutive best-reply rounds do.
    for (double& c : caps) {
      c *= 1.0 + 0.05 * (rng.next_double_open() - 0.5);
    }
  }
}

TEST(WaterfillWorkspace, HandlesSizeChangesAndTies) {
  WaterfillWorkspace ws;
  std::vector<double> caps{5.0, 5.0, 5.0};  // all tied: index order rules
  std::vector<double> out(3);
  (void)waterfill_sqrt_into(caps, 6.0, out, ws);
  const WaterfillResult ref = waterfill_sqrt(caps, 6.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], ref.lambda[i]);

  // Shrink, then grow: the stale order must be rebuilt, not trusted.
  std::vector<double> caps2{3.0, 9.0};
  std::vector<double> out2(2);
  (void)waterfill_sqrt_into(caps2, 4.0, out2, ws);
  const WaterfillResult ref2 = waterfill_sqrt(caps2, 4.0);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(out2[i], ref2.lambda[i]);

  std::vector<double> caps3{1.0, 8.0, 2.0, 8.0};
  std::vector<double> out3(4);
  (void)waterfill_sqrt_into(caps3, 10.0, out3, ws);
  const WaterfillResult ref3 = waterfill_sqrt(caps3, 10.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out3[i], ref3.lambda[i]);

  EXPECT_THROW((void)waterfill_sqrt_into(caps3, 5.0, out2, ws),
               std::invalid_argument);  // wrong output size
}

TEST(BestReplyInto, MatchesAllocatingBestReply) {
  const Instance inst = small_instance();
  const StrategyProfile s = StrategyProfile::proportional(inst);
  const LoadState state(inst, s);
  BestReplyWorkspace ws;
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    const std::vector<double> ref = best_reply(inst, s, j);
    const std::span<const double> fast = best_reply_into(inst, s, state, j, ws);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-14);
    }
  }
}

TEST(BestReplyGain, MatchesDeviatedProfileDefinition) {
  // The no-copy gain must equal the definitional value: install the best
  // reply in a copied profile and compare response times.
  const Instance inst = small_instance();
  stats::Xoshiro256 rng(0x1234ULL);
  StrategyProfile s = StrategyProfile::proportional(inst);
  // Perturb the proportional rows toward random simplex points, gently
  // enough that every computer keeps slack (the gain is finite).
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    const std::vector<double> noise = random_row(inst.num_computers(), rng);
    std::vector<double> row(inst.num_computers());
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = 0.8 * s.at(j, i) + 0.2 * noise[i];
    }
    s.set_row(j, row);
  }
  ASSERT_TRUE(s.is_feasible(inst, 1e-9));
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    const double current = user_response_time(inst, s, j);
    StrategyProfile deviated = s;
    deviated.set_row(j, best_reply(inst, s, j));
    const double reference = current - user_response_time(inst, deviated, j);
    EXPECT_NEAR(best_reply_gain(inst, s, j), reference, 1e-10) << "user "
                                                               << j;
  }
}

// ---------------------------------------------------------------------------
// Dynamics equivalence: the incremental core against a faithful copy of
// the seed implementation (recompute-from-scratch per user move).

/// The seed's run loop, reproduced verbatim on the allocating APIs.
DynamicsResult reference_dynamics(const Instance& inst,
                                  const DynamicsOptions& options) {
  const std::size_t m = inst.num_users();
  StrategyProfile profile(m, inst.num_computers());
  std::vector<double> last_times(m, 0.0);
  if (options.init == Initialization::Proportional) {
    profile = StrategyProfile::proportional(inst);
    last_times = user_response_times(inst, profile);
    for (double& d : last_times) {
      if (!std::isfinite(d)) d = 0.0;
    }
  }
  DynamicsResult result{std::move(profile), false, false, 0, {}, {}};
  stats::Xoshiro256 order_rng(options.order_seed);
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (std::size_t round = 1; round <= options.max_iterations; ++round) {
    double norm = 0.0;
    if (options.order == UpdateOrder::RoundRobin ||
        options.order == UpdateOrder::RandomOrder) {
      if (options.order == UpdateOrder::RandomOrder) {
        for (std::size_t k = m; k > 1; --k) {
          std::swap(order[k - 1],
                    order[static_cast<std::size_t>(order_rng.next_below(k))]);
        }
      }
      for (std::size_t idx = 0; idx < m; ++idx) {
        const std::size_t j = order[idx];
        result.profile.set_row(j, best_reply(inst, result.profile, j));
        const double d = user_response_time(inst, result.profile, j);
        norm += std::fabs(d - last_times[j]);
        last_times[j] = d;
      }
    } else {
      const StrategyProfile frozen = result.profile;
      for (std::size_t j = 0; j < m; ++j) {
        result.profile.set_row(j, best_reply(inst, frozen, j));
      }
      bool ok = true;
      for (std::size_t j = 0; j < m && ok; ++j) {
        const std::vector<double> avail =
            result.profile.available_rates(inst, j);
        for (double a : avail) {
          if (!(a > 0.0)) ok = false;
        }
      }
      for (std::size_t j = 0; j < m; ++j) {
        const double d = user_response_time(inst, result.profile, j);
        if (!std::isfinite(d)) ok = false;
        norm += std::fabs(d - last_times[j]);
        last_times[j] = d;
      }
      if (!ok) {
        result.iterations = round;
        result.norm_history.push_back(norm);
        result.diverged = true;
        result.user_times = std::move(last_times);
        return result;
      }
    }
    result.iterations = round;
    result.norm_history.push_back(norm);
    if (norm <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.user_times = user_response_times(inst, result.profile);
  return result;
}

void expect_equivalent(const Instance& inst, const DynamicsOptions& options,
                       const char* label) {
  const DynamicsResult ref = reference_dynamics(inst, options);
  const DynamicsResult incr = best_reply_dynamics(inst, options);
  EXPECT_EQ(incr.converged, ref.converged) << label;
  EXPECT_EQ(incr.diverged, ref.diverged) << label;
  EXPECT_EQ(incr.iterations, ref.iterations) << label;
  EXPECT_LT(incr.profile.max_difference(ref.profile), 1e-12) << label;
  ASSERT_EQ(incr.norm_history.size(), ref.norm_history.size()) << label;
  for (std::size_t l = 0; l < ref.norm_history.size(); ++l) {
    if (std::isinf(ref.norm_history[l])) {
      // A diverging Jacobi round: both paths must blow up identically.
      EXPECT_EQ(incr.norm_history[l], ref.norm_history[l])
          << label << " round " << l + 1;
    } else {
      EXPECT_NEAR(incr.norm_history[l], ref.norm_history[l], 1e-10)
          << label << " round " << l + 1;
    }
  }
}

TEST(DynamicsEquivalence, Table1AllOrdersAndInitializations) {
  const Instance inst = workload::table1_instance(0.6);
  for (const UpdateOrder order :
       {UpdateOrder::RoundRobin, UpdateOrder::RandomOrder,
        UpdateOrder::Simultaneous}) {
    for (const Initialization init :
         {Initialization::Zero, Initialization::Proportional}) {
      DynamicsOptions opts;
      opts.order = order;
      opts.init = init;
      opts.tolerance = 1e-6;
      opts.max_iterations = 2000;
      expect_equivalent(inst, opts,
                        (std::string("table1 order=") +
                         std::to_string(static_cast<int>(order)) +
                         " init=" + std::to_string(static_cast<int>(init)))
                            .c_str());
    }
  }
}

TEST(DynamicsEquivalence, RandomizedInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::RandomInstanceOptions ropts;
    ropts.num_computers = 3 + 5 * static_cast<std::size_t>(seed % 4);
    ropts.num_users = 2 + 7 * static_cast<std::size_t>(seed % 3);
    ropts.utilization = 0.4 + 0.09 * static_cast<double>(seed);
    ropts.heterogeneity = 30.0;
    ropts.seed = 0xc0ffee + seed;
    const Instance inst = workload::random_instance(ropts);
    for (const UpdateOrder order :
         {UpdateOrder::RoundRobin, UpdateOrder::RandomOrder,
          UpdateOrder::Simultaneous}) {
      DynamicsOptions opts;
      opts.order = order;
      opts.init = Initialization::Proportional;
      opts.tolerance = 1e-5;
      opts.max_iterations = 3000;
      expect_equivalent(
          inst, opts,
          ("random seed=" + std::to_string(seed) + " order=" +
           std::to_string(static_cast<int>(order)))
              .c_str());
    }
  }
}

TEST(DynamicsEquivalence, ZeroInitRandomizedInstances) {
  workload::RandomInstanceOptions ropts;
  ropts.num_computers = 12;
  ropts.num_users = 9;
  ropts.utilization = 0.85;
  ropts.seed = 0xdeadULL;
  const Instance inst = workload::random_instance(ropts);
  for (const UpdateOrder order :
       {UpdateOrder::RoundRobin, UpdateOrder::RandomOrder}) {
    DynamicsOptions opts;
    opts.order = order;
    opts.init = Initialization::Zero;
    opts.tolerance = 1e-5;
    opts.max_iterations = 3000;
    expect_equivalent(inst, opts, "zero-init random");
  }
}

}  // namespace
}  // namespace nashlb::core
