// Tests of the observability layer (obs/histogram.hpp, obs/json.hpp):
// histogram semantics, JSON formatting, the no-op contract of the
// disabled twins, and the instrumentation points in des/simmodel.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "obs/convergence.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "simmodel/system_sim.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace {

using namespace nashlb;

core::Instance small_instance() {
  core::Instance inst;
  inst.mu = {100.0, 50.0, 10.0};
  inst.phi = {40.0, 20.0};
  return inst;
}

// --- JSON formatting ----------------------------------------------------

TEST(ObsJson, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("a\nb\t\"\\"), "\"a\\nb\\t\\\"\\\\\"");
  EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

// --- histograms ---------------------------------------------------------

// Merging two histograms cannot fail in either twin: replicate() folds
// every run's histograms into its result with it.
static_assert(noexcept(std::declval<obs::Histogram&>().merge(
    std::declval<const obs::Histogram&>())));

TEST(ObsHistogram, LayoutIsMonotoneAndSelfConsistent) {
  using Layout = obs::HistogramLayout;
  ASSERT_GT(Layout::bucket_count(), 0u);
  for (std::size_t k = 0; k < Layout::bucket_count(); ++k) {
    const double lo = Layout::bucket_lower_bound(k);
    const double hi = Layout::bucket_upper_bound(k);
    EXPECT_LT(lo, hi);
    if (k > 0) {
      EXPECT_DOUBLE_EQ(lo, Layout::bucket_upper_bound(k - 1));
    }
    // A value strictly inside the bucket indexes back to it.
    EXPECT_EQ(Layout::bucket_index(lo * 1.01), k);
  }
  // Out-of-grid values clamp instead of falling off.
  EXPECT_EQ(Layout::bucket_index(0.0), 0u);
  EXPECT_EQ(Layout::bucket_index(-1.0), 0u);
  EXPECT_EQ(Layout::bucket_index(1e300), Layout::bucket_count() - 1);
}

// The formula bucket_index's edge table was built from, kept here as the
// reference: bucket k covers [2^(-30 + k/16), 2^(-30 + (k+1)/16)).
std::size_t log2_formula_index(double seconds) {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return 0;
  const double pos = (std::log2(seconds) - (-30.0)) * 16.0;
  if (pos <= 0.0) return 0;
  const auto k = static_cast<std::size_t>(pos);
  const std::size_t count = obs::HistogramLayout::bucket_count();
  return k >= count ? count - 1 : k;
}

TEST(ObsHistogram, BucketIndexMatchesTheLog2Formula) {
  using Layout = obs::HistogramLayout;
  const std::size_t count = Layout::bucket_count();
  ASSERT_EQ(count, 672u);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const auto check = [&](double x) {
    ++checked;
    const std::size_t got = Layout::bucket_index(x);
    const std::size_t want = log2_formula_index(x);
    if (got != want && mismatches++ < 5) {
      ADD_FAILURE() << std::hexfloat << x << ": table " << got
                    << ", formula " << want;
    }
  };
  // Every bucket edge and the grid's top, each +-64 ulps.
  for (std::size_t k = 0; k <= count; ++k) {
    const double edge = k < count ? Layout::bucket_lower_bound(k)
                                  : Layout::bucket_upper_bound(count - 1);
    const auto bits = std::bit_cast<std::uint64_t>(edge);
    for (std::uint64_t d = 0; d <= 128; ++d) {
      check(std::bit_cast<double>(bits - 64 + d));
    }
  }
  // Log-uniform values across the grid and past both ends, and random bit
  // patterns: every sign and exponent, subnormals, infinities and NaNs.
  stats::Xoshiro256 rng(672);
  for (int i = 0; i < 1000000; ++i) {
    check(std::exp2(-40.0 + 60.0 * rng.next_double()));
    check(std::bit_cast<double>(rng()));
  }
  using limits = std::numeric_limits<double>;
  for (const double x :
       {0.0, -0.0, -1.0, limits::denorm_min(), -limits::denorm_min(),
        limits::min(), limits::max(), limits::lowest(), limits::infinity(),
        -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN()}) {
    check(x);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " values";
}

TEST(ObsHistogram, RecordsCountSumAndExtremes) {
  obs::detail::EnabledHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.record(0.25);
  h.record(1.0);
  h.record(0.03);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 0.03);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  // Quantiles stay inside the exact observed range.
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.99), h.max());
}

TEST(ObsHistogram, QuantilesTrackExactSampleQuantiles) {
  // Random exponential latencies: the histogram's interpolated quantile
  // must track the exact sorted-sample quantile within the bucket
  // relative width (~4.4%) plus interpolation slack.
  stats::Xoshiro256 rng(0xfeedULL);
  const stats::Exponential latency(50.0);  // mean 20 ms
  obs::detail::EnabledHistogram h;
  std::vector<double> samples;
  const std::size_t kN = 20000;
  samples.reserve(kN);
  for (std::size_t s = 0; s < kN; ++s) {
    const double x = latency.sample(rng);
    samples.push_back(x);
    h.record(x);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(kN)));
    const double exact = samples[rank - 1];
    EXPECT_NEAR(h.quantile(q), exact, 0.06 * exact)
        << "q=" << q;
  }
  // Degenerate quantiles clamp to the exact extremes.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), samples.front());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), samples.back());
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  stats::Xoshiro256 rng(0xabcdULL);
  const stats::Exponential latency(10.0);
  obs::detail::EnabledHistogram a, b, c;
  for (int s = 0; s < 500; ++s) a.record(latency.sample(rng));
  for (int s = 0; s < 300; ++s) b.record(latency.sample(rng) * 2.0);
  for (int s = 0; s < 100; ++s) c.record(latency.sample(rng) * 0.1);

  const auto same = [](const obs::detail::EnabledHistogram& x,
                       const obs::detail::EnabledHistogram& y) {
    ASSERT_EQ(x.count(), y.count());
    EXPECT_DOUBLE_EQ(x.min(), y.min());
    EXPECT_DOUBLE_EQ(x.max(), y.max());
    for (std::size_t k = 0; k < obs::HistogramLayout::bucket_count(); ++k) {
      ASSERT_EQ(x.bucket(k), y.bucket(k)) << "bucket " << k;
    }
    EXPECT_DOUBLE_EQ(x.quantile(0.5), y.quantile(0.5));
    EXPECT_DOUBLE_EQ(x.quantile(0.99), y.quantile(0.99));
  };

  // Commutativity: a+b == b+a.
  obs::detail::EnabledHistogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  same(ab, ba);

  // Associativity: (a+b)+c == a+(b+c).
  obs::detail::EnabledHistogram left = ab, bc = b, right = a;
  left.merge(c);
  bc.merge(c);
  right.merge(bc);
  same(left, right);

  // Merging an empty histogram is the identity.
  obs::detail::EnabledHistogram a2 = a;
  a2.merge(obs::detail::EnabledHistogram{});
  same(a2, a);
}

// --- the no-op twins (the disabled build's types) -----------------------

TEST(ObsDisabled, NullTypesAreEmptyNoOps) {
  // The disabled build swaps these in for the real types; they must have
  // empty layout and discard everything.
  static_assert(std::is_empty_v<obs::detail::NullHistogram>);
}

TEST(ObsDisabled, NullHistogramRecordsNothing) {
  obs::detail::NullHistogram h;
  h.record(1.0);
  obs::detail::NullHistogram other;
  other.record(2.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
  EXPECT_EQ(h.bucket(0), 0u);
}

// An instrumented call site, templated on the probe type the way the
// library's call sites are switched by NASHLB_OBS_ENABLED: with the null
// probe the same code must compile and record nothing.
template <typename Probe>
std::size_t instrumented_loop(Probe& probe) {
  std::size_t work = 0;
  for (std::int64_t round = 1; round <= 4; ++round) {
    work += static_cast<std::size_t>(round);
    probe.record_round(round, 0.5 * static_cast<double>(round), 0.0, 0.0,
                       0.0, 0, 0.0);
  }
  return work;
}

TEST(ObsDisabled, InstrumentedCallSiteCompilesAgainstBothTwins) {
  obs::detail::EnabledConvergenceProbe enabled;
  obs::detail::NullConvergenceProbe null;
  EXPECT_EQ(instrumented_loop(enabled), instrumented_loop(null));
  EXPECT_EQ(enabled.size(), 4u);
  EXPECT_EQ(null.size(), 0u);
}

// --- instrumentation points in the stack --------------------------------

TEST(ObsWiring, DesKernelAndFacilityPublishCounters) {
  des::Simulator sim;
  des::Facility server(sim, "cpu0", 1);
  int events = 0;
  std::vector<double> waits;  // completion - submit - service, per job
  const auto done = [&events, &waits](des::SimTime t) {
    ++events;
    waits.push_back(t - 0.0 - 1.0);  // submitted at 0, 1 s of service
  };
  // Two back-to-back unit jobs: one served immediately, one queued.
  sim.schedule(0.0, [&](des::SimTime) {
    ++events;
    server.request(1.0, done);
    server.request(1.0, done);
  });
  sim.run();
  // The submitting event plus two service completions.
  EXPECT_EQ(events, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
  // Two unit jobs back to back: 2 busy server-seconds over [0, 2].
  EXPECT_NEAR(server.utilization(sim.now()) * sim.now(), 2.0, 1e-12);
  // The queued job waited exactly one service time.
  EXPECT_EQ(waits, (std::vector<double>{0.0, 1.0}));
  if constexpr (obs::kEnabled) {
    // Sojourns: 1 s for the first job, 2 s for the queued one.
    const obs::Histogram& sojourn = server.sojourn_histogram();
    EXPECT_EQ(sojourn.count(), 2u);
    EXPECT_NEAR(sojourn.min(), 1.0, 1e-12);
    EXPECT_NEAR(sojourn.max(), 2.0, 1e-12);
  }
}

TEST(ObsWiring, SystemSimExportsPerComputerSojournHistograms) {
  const core::Instance inst = small_instance();
  const core::StrategyProfile profile =
      core::StrategyProfile::proportional(inst);
  simmodel::SimConfig cfg;
  cfg.horizon = 50.0;
  cfg.warmup = 0.0;
  const simmodel::SimRunResult run = simmodel::simulate(inst, profile, cfg);
  ASSERT_EQ(run.computer_sojourn.size(), inst.num_computers());
  if constexpr (obs::kEnabled) {
    std::uint64_t recorded = 0;
    for (const obs::Histogram& h : run.computer_sojourn) {
      recorded += h.count();
      if (h.count() > 0) {
        EXPECT_GT(h.max(), 0.0);
      }
    }
    // Every completed job's sojourn is recorded (incl. warmup = 0 here).
    EXPECT_EQ(recorded, run.jobs_completed);
  } else {
    for (const obs::Histogram& h : run.computer_sojourn) {
      EXPECT_EQ(h.count(), 0u);
    }
  }
}

}  // namespace
