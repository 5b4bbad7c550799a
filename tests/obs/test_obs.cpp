// Tests of the observability layer (obs/metrics.hpp, obs/histogram.hpp,
// obs/json.hpp): counter/timer/histogram semantics, registry export
// round-trips through the CSV and JSON-lines writers, the no-op contract
// of the disabled twins, and the instrumentation points in des/simmodel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "obs/convergence.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "simmodel/system_sim.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"

namespace {

using namespace nashlb;

/// Unique temp file path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("nashlb_obs_test_" + name))
                  .string()) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string contents() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

 private:
  std::string path_;
};

core::Instance small_instance() {
  core::Instance inst;
  inst.mu = {100.0, 50.0, 10.0};
  inst.phi = {40.0, 20.0};
  return inst;
}

// --- counters / timers --------------------------------------------------

TEST(ObsMetrics, CounterAccumulates) {
  obs::detail::EnabledCounter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, TimerAccumulatesAndAverages) {
  obs::detail::EnabledTimer t;
  t.add_batch(0.5, 1, 0.5, 0.5);
  t.add_batch(1.5, 1, 1.5, 1.5);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 2.0);
  t.add_batch(3.0, 3);
  EXPECT_EQ(t.count(), 5u);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 5.0);
}

TEST(ObsMetrics, TimerTracksExtremes) {
  obs::detail::EnabledTimer t;
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.0);  // empty: no extremes yet
  EXPECT_DOUBLE_EQ(t.max_seconds(), 0.0);
  t.add_batch(1.5, 1, 1.5, 1.5);
  t.add_batch(0.5, 1, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(t.max_seconds(), 1.5);
  // The 2-arg batch carries no extremes and must not disturb them.
  t.add_batch(100.0, 10);
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(t.max_seconds(), 1.5);
  // The 4-arg batch folds its own extremes in.
  t.add_batch(1.0, 4, 0.01, 3.0);
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.01);
  EXPECT_DOUBLE_EQ(t.max_seconds(), 3.0);
  // An empty batch must not install bogus extremes.
  obs::detail::EnabledTimer u;
  u.add_batch(0.0, 0, 99.0, -99.0);
  EXPECT_DOUBLE_EQ(u.min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(u.max_seconds(), 0.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(t.max_seconds(), 0.0);
}

TEST(ObsMetrics, CounterMergeSumsShards) {
  obs::detail::EnabledCounter a;
  obs::detail::EnabledCounter b;
  a.add(40);
  b.add(2);
  a.merge(b);
  EXPECT_EQ(a.value(), 42u);
  EXPECT_EQ(b.value(), 2u);  // the source shard is untouched
}

TEST(ObsMetrics, TimerMergeFoldsTotalsAndExtremes) {
  obs::detail::EnabledTimer a;
  obs::detail::EnabledTimer b;
  a.add_batch(1.0, 1, 1.0, 1.0);
  b.add_batch(0.25, 1, 0.25, 0.25);
  b.add_batch(4.0, 1, 4.0, 4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 5.25);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 4.0);
  // A shard with no recorded extremes (extreme-less batches only) must
  // not disturb the target's extremes — including a legitimate min of 0.
  obs::detail::EnabledTimer batch_only;
  batch_only.add_batch(10.0, 5);
  a.merge(batch_only);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 15.25);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 4.0);
  // Merging into an empty timer adopts the source's extremes verbatim.
  obs::detail::EnabledTimer empty;
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(empty.max_seconds(), 4.0);
}

TEST(ObsMetrics, RegistryMergeReducesShardsMetricByMetric) {
  // The sharding pattern behind parallel replications: one registry per
  // worker, merged in a fixed order after the join.
  obs::detail::EnabledRegistry total;
  obs::detail::EnabledRegistry shard1;
  obs::detail::EnabledRegistry shard2;
  total.counter("jobs").add(1);
  shard1.counter("jobs").add(10);
  shard1.timer("busy").add_batch(0.5, 1, 0.5, 0.5);
  shard1.histogram("sojourn").record(0.125);
  shard2.counter("jobs").add(100);
  shard2.counter("only_in_shard2").add(7);
  shard2.timer("busy").add_batch(1.5, 1, 1.5, 1.5);
  shard2.histogram("sojourn").record(2.0);
  total.merge(shard1);
  total.merge(shard2);
  EXPECT_EQ(total.counter("jobs").value(), 111u);
  EXPECT_EQ(total.counter("only_in_shard2").value(), 7u);
  EXPECT_EQ(total.timer("busy").count(), 2u);
  EXPECT_DOUBLE_EQ(total.timer("busy").total_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(total.timer("busy").min_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(total.timer("busy").max_seconds(), 1.5);
  EXPECT_EQ(total.histogram("sojourn").count(), 2u);
  EXPECT_DOUBLE_EQ(total.histogram("sojourn").min(), 0.125);
  EXPECT_DOUBLE_EQ(total.histogram("sojourn").max(), 2.0);
  // Merge order over disjoint shards is associative for these folds:
  // merging the other way round yields the same reduced metrics.
  obs::detail::EnabledRegistry reversed;
  reversed.counter("jobs").add(1);
  reversed.merge(shard2);
  reversed.merge(shard1);
  EXPECT_EQ(reversed.counter("jobs").value(), 111u);
  EXPECT_DOUBLE_EQ(reversed.timer("busy").min_seconds(), 0.5);
  EXPECT_EQ(reversed.histogram("sojourn").count(), 2u);
}

TEST(ObsMetrics, NullTwinsMergeAsNoOps) {
  obs::detail::NullCounter nc;
  nc.merge(obs::detail::NullCounter{});
  EXPECT_EQ(nc.value(), 0u);
  obs::detail::NullTimer nt;
  nt.merge(obs::detail::NullTimer{});
  EXPECT_EQ(nt.count(), 0u);
  obs::detail::NullRegistry nr;
  nr.merge(obs::detail::NullRegistry{});
  EXPECT_EQ(nr.size(), 0u);
}

TEST(ObsMetrics, RegistryReferencesAreStable) {
  obs::detail::EnabledRegistry reg;
  obs::detail::EnabledCounter& a = reg.counter("a");
  // Creating many more metrics must not invalidate `a`.
  for (int i = 0; i < 100; ++i) {
    const std::string suffix = std::to_string(i);
    reg.counter("c" + suffix).add();
    reg.timer("t" + suffix).add_batch(0.1, 1);
  }
  a.add(7);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  EXPECT_EQ(reg.size(), 201u);
}

TEST(ObsMetrics, RegistryCsvRoundTrip) {
  obs::detail::EnabledRegistry reg;
  reg.counter("solver.rounds").add(17);
  reg.timer("solver.wall").add_batch(2.5, 5);
  reg.histogram("solver.round_latency").record(0.5);
  TempFile f("registry.csv");
  reg.write_csv(f.path());
  const std::string csv = f.contents();
  EXPECT_NE(csv.find("metric,kind,count,total_seconds,min_seconds,"
                     "max_seconds,p50,p90,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("solver.rounds,counter,17,0,0,0,0,0,0"),
            std::string::npos);
  // The batch carried no extremes, so min/max export as 0.
  EXPECT_NE(csv.find("solver.wall,timer,5,2.5,0,0,0,0,0"),
            std::string::npos);
  // A single 0.5 s observation: every quantile clamps to the exact value.
  EXPECT_NE(csv.find("solver.round_latency,histogram,1,0.5,0.5,0.5,"
                     "0.5,0.5,0.5"),
            std::string::npos);
}

TEST(ObsMetrics, RegistryExportColumnsMatchSnapshotFields) {
  // The programmatic schema is what consumers (and the lint) key on.
  const std::vector<std::string> cols = obs::registry_export_columns();
  ASSERT_EQ(cols.size(), 9u);
  EXPECT_EQ(cols.front(), "metric");
  EXPECT_EQ(cols.back(), "p99");
}

TEST(ObsMetrics, RegistryJsonlRoundTrip) {
  obs::detail::EnabledRegistry reg;
  reg.counter("events").add(3);
  TempFile f("registry.jsonl");
  reg.write_jsonl(f.path());
  EXPECT_EQ(f.contents(),
            "{\"metric\":\"events\",\"kind\":\"counter\",\"count\":3,"
            "\"total_seconds\":0,\"min_seconds\":0,\"max_seconds\":0,"
            "\"p50\":0,\"p90\":0,\"p99\":0}\n");
}

// --- JSON formatting ----------------------------------------------------

TEST(ObsJson, EscapesControlCharacters) {
  EXPECT_EQ(obs::json_quote("a\nb\t\"\\"), "\"a\\nb\\t\\\"\\\\\"");
  EXPECT_EQ(obs::json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

// --- histograms ---------------------------------------------------------

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

TEST(ObsHistogram, RecordsCountSumAndExtremes) {
  obs::detail::EnabledHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.record(0.25);
  h.record(1.0);
  h.record(0.03);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.28);
  EXPECT_DOUBLE_EQ(h.min(), 0.03);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.28 / 3.0);
  // Quantiles stay inside the exact observed range.
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
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
    EXPECT_DOUBLE_EQ(x.sum(), y.sum());
    EXPECT_DOUBLE_EQ(x.min(), y.min());
    EXPECT_DOUBLE_EQ(x.max(), y.max());
    for (std::size_t k = 0; k < obs::HistogramLayout::bucket_count(); ++k) {
      ASSERT_EQ(x.bucket(k), y.bucket(k)) << "bucket " << k;
    }
    EXPECT_DOUBLE_EQ(x.p50(), y.p50());
    EXPECT_DOUBLE_EQ(x.p99(), y.p99());
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
  static_assert(std::is_empty_v<obs::detail::NullCounter>);
  static_assert(std::is_empty_v<obs::detail::NullTimer>);
  static_assert(std::is_empty_v<obs::detail::NullHistogram>);
  obs::detail::NullCounter c;
  c.add(1000);
  EXPECT_EQ(c.value(), 0u);
  obs::detail::NullTimer t;
  t.add_batch(5.0, 5);
  t.add_batch(5.0, 5, 1.0, 4.0);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.total_seconds(), 0.0);
  EXPECT_EQ(t.min_seconds(), 0.0);
  EXPECT_EQ(t.max_seconds(), 0.0);
}

TEST(ObsDisabled, NullHistogramRecordsNothing) {
  obs::detail::NullHistogram h;
  h.record(1.0);
  obs::detail::NullHistogram other;
  other.record(2.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.bucket(0), 0u);
}

TEST(ObsDisabled, NullRegistryAndSinkDiscardEverything) {
  obs::detail::NullRegistry reg;
  reg.counter("x").add(5);
  reg.timer("y").add_batch(1.0, 1);
  reg.histogram("z").record(1.0);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
  // write_* must not create files.
  TempFile f("null_registry.csv");
  reg.write_csv(f.path());
  reg.write_jsonl(f.path());
  EXPECT_FALSE(std::filesystem::exists(f.path()));
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
  // Two back-to-back unit jobs: one served immediately, one queued.
  sim.schedule(0.0, [&](des::SimTime) {
    server.request(1.0, [](des::SimTime) {});
    server.request(1.0, [](des::SimTime) {});
  });
  sim.run();
  obs::Registry reg;
  sim.publish_metrics(reg);
  server.publish_metrics(reg, sim.now());
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(reg.counter("des.events_executed").value(),
              sim.events_executed());
    EXPECT_GE(reg.counter("des.events_scheduled").value(),
              reg.counter("des.events_executed").value());
    EXPECT_EQ(reg.counter("cpu0.requests").value(), 2u);
    EXPECT_EQ(reg.counter("cpu0.completed").value(), 2u);
    // Two unit jobs back to back: 2 busy server-seconds over [0, 2].
    EXPECT_NEAR(reg.timer("cpu0.busy_time").total_seconds(), 2.0, 1e-12);
    // The queued job waited exactly one service time; the 4-arg batch
    // publish carries the per-job extremes.
    EXPECT_NEAR(reg.timer("cpu0.waiting").total_seconds(), 1.0, 1e-12);
    EXPECT_EQ(reg.timer("cpu0.waiting").count(), 2u);
    EXPECT_NEAR(reg.timer("cpu0.waiting").min_seconds(), 0.0, 1e-12);
    EXPECT_NEAR(reg.timer("cpu0.waiting").max_seconds(), 1.0, 1e-12);
    // Sojourns: 1 s for the first job, 2 s for the queued one.
    const obs::Histogram& sojourn = server.sojourn_histogram();
    EXPECT_EQ(sojourn.count(), 2u);
    EXPECT_NEAR(sojourn.min(), 1.0, 1e-12);
    EXPECT_NEAR(sojourn.max(), 2.0, 1e-12);
    EXPECT_NEAR(sojourn.sum(), 3.0, 1e-12);
    EXPECT_EQ(reg.histogram("cpu0.sojourn").count(), 2u);
    EXPECT_NEAR(reg.histogram("cpu0.sojourn").max(), 2.0, 1e-12);
  } else {
    EXPECT_EQ(reg.size(), 0u);
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
