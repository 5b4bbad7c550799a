// Tests of the convergence telemetry layer: the obs::ConvergenceProbe
// store/export/summary semantics, its no-op twin, the core::RoundRecorder
// wiring through all three dynamics orders, class mode and the ring
// protocol, and the obs::RunManifest provenance record.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/dynamics.hpp"
#include "core/user_classes.hpp"
#include "distributed/ring_protocol.hpp"
#include "obs/convergence.hpp"
#include "obs/manifest.hpp"
#include "support/fixtures.hpp"
#include "util/contracts.hpp"

namespace {

using namespace nashlb;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("nashlb_convergence_test_" + name))
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

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- probe storage + summaries ------------------------------------------

TEST(ConvergenceProbe, SchemaHasSevenColumns) {
  const std::vector<std::string> cols = obs::convergence_trace_columns();
  ASSERT_EQ(cols.size(), 7u);
  EXPECT_EQ(cols.front(), "round");
  EXPECT_EQ(cols.back(), "util_spread");
}

TEST(ConvergenceProbe, RecordsRowsInOrder) {
  obs::detail::EnabledConvergenceProbe probe;
  probe.record_round(1, 0.5, 0.1, 2.0, 0.3, 2, 0.4);
  probe.record_round(2, 0.25, 0.05, 1.9, 0.29, 1, 0.35);
  ASSERT_EQ(probe.size(), 2u);
  EXPECT_EQ(probe.rows()[0].round, 1);
  EXPECT_EQ(probe.rows()[1].norm, 0.25);
  EXPECT_EQ(probe.rows()[1].active_set_churn, 1);
}

TEST(ConvergenceProbe, RoundsToTolFindsFirstQualifyingRound) {
  obs::detail::EnabledConvergenceProbe probe;
  probe.record_round(1, 0.5, kNaN, 0, 0, 0, 0);
  probe.record_round(2, 0.05, kNaN, 0, 0, 0, 0);
  probe.record_round(3, 0.01, kNaN, 0, 0, 0, 0);
  EXPECT_EQ(probe.rounds_to_tol(0.1), 2);
  EXPECT_EQ(probe.rounds_to_tol(1.0), 1);
  EXPECT_EQ(probe.rounds_to_tol(1e-9), 0);  // never reached
}

TEST(ConvergenceProbe, FinalEpsNashSkipsNonFiniteGaps) {
  obs::detail::EnabledConvergenceProbe probe;
  probe.record_round(1, 0.5, 0.125, 0, 0, 0, 0);
  probe.record_round(2, 0.25, kNaN, 0, 0, 0, 0);  // uncomputable gap
  EXPECT_EQ(probe.final_eps_nash(), 0.125);
  obs::detail::EnabledConvergenceProbe empty;
  EXPECT_TRUE(std::isnan(empty.final_eps_nash()));
}

TEST(ConvergenceProbe, CsvAndJsonlExports) {
  obs::detail::EnabledConvergenceProbe probe;
  probe.record_round(1, 0.5, 0.1, 2.0, 0.3, 2, 0.4);
  // Round 2 needs all 17 digits and has an uncomputable gap: the export
  // must round-trip the doubles bitwise, not prettily, and spell the NaN
  // `nan`.
  const double v = 0.1 + 0.2;  // 0.30000000000000004
  probe.record_round(2, v, std::numeric_limits<double>::quiet_NaN(), v, v, 0,
                     v);
  TempFile csv("probe.csv");
  probe.write_csv(csv.path());
  EXPECT_NE(csv.contents().find(
                "round,norm,eps_nash_gap,potential,overall_cost,"
                "active_set_churn,util_spread"),
            std::string::npos);
  EXPECT_NE(csv.contents().find("1,0.5,0.1,2,0.3,2,0.4"), std::string::npos);

  std::istringstream csv_lines(csv.contents());
  std::string line;
  for (int k = 0; k < 3; ++k) std::getline(csv_lines, line);  // round 2
  std::vector<std::string> cells;
  std::istringstream row(line);
  for (std::string cell; std::getline(row, cell, ',');) cells.push_back(cell);
  ASSERT_EQ(cells.size(), 7u);
  EXPECT_EQ(cells[0], "2");
  EXPECT_EQ(std::stod(cells[1]), v);
  EXPECT_EQ(cells[2], "nan");
  EXPECT_EQ(std::stod(cells[6]), v);
}

TEST(ConvergenceProbeNull, TwinIsEmptyStatelessAndWritesNothing) {
  static_assert(std::is_empty_v<obs::detail::NullConvergenceProbe>,
                "the disabled probe must carry no state");
  obs::detail::NullConvergenceProbe probe;
  probe.record_round(1, 0.5, 0.1, 2.0, 0.3, 2, 0.4);
  EXPECT_EQ(probe.size(), 0u);
  EXPECT_TRUE(probe.empty());
  EXPECT_EQ(probe.rounds_to_tol(1.0), 0);
  EXPECT_EQ(probe.final_eps_nash(), 0.0);
  TempFile csv("null_probe.csv");
  probe.write_csv(csv.path());
  EXPECT_FALSE(std::filesystem::exists(csv.path()));  // no file created
}

// --- dynamics wiring ----------------------------------------------------

using test_support::ProbeRun;
using test_support::run_with_probe;

TEST(ConvergenceWiring, AllThreeOrdersRecordOneRowPerRound) {
  const core::Instance inst = small_instance();
  for (const core::UpdateOrder order :
       {core::UpdateOrder::RoundRobin, core::UpdateOrder::RandomOrder,
        core::UpdateOrder::Simultaneous}) {
    core::DynamicsOptions opts;
    opts.order = order;
    const ProbeRun run = run_with_probe(inst, opts);
    const obs::ConvergenceProbe& probe = run.probe;
    const core::DynamicsResult& res = run.result;
    if constexpr (obs::kEnabled) {
      ASSERT_EQ(probe.size(), res.iterations);
      for (std::size_t k = 0; k < probe.size(); ++k) {
        const auto& row = probe.rows()[k];
        EXPECT_EQ(row.round, static_cast<std::int64_t>(k + 1));
        EXPECT_EQ(row.norm, res.norm_history[k]);  // bitwise: same double
        EXPECT_GE(row.active_set_churn, 0);
        EXPECT_LE(row.active_set_churn,
                  static_cast<std::int64_t>(inst.num_users()));
        EXPECT_GE(row.util_spread, 0.0);
        EXPECT_TRUE(std::isfinite(row.overall_cost));
      }
      if (res.converged) {
        EXPECT_EQ(probe.rounds_to_tol(opts.tolerance),
                  static_cast<std::int64_t>(res.iterations));
        const double gap = probe.final_eps_nash();
        EXPECT_TRUE(std::isfinite(gap));
        EXPECT_GE(gap, 0.0);
      }
    } else {
      EXPECT_EQ(probe.size(), 0u);
    }
  }
}

TEST(ConvergenceWiring, SingletonClassRunMatchesPerUserRowForRow) {
  const core::Instance inst = small_instance();
  core::DynamicsOptions opts;
  const obs::ConvergenceProbe per_user = run_with_probe(inst, opts).probe;
  const core::UserClassPartition part =
      core::UserClassPartition::singletons(inst);
  opts.classes = &part;
  const obs::ConvergenceProbe classed = run_with_probe(inst, opts).probe;
  if constexpr (obs::kEnabled) {
    ASSERT_EQ(classed.size(), per_user.size());
    for (std::size_t k = 0; k < classed.size(); ++k) {
      const auto& a = per_user.rows()[k];
      const auto& b = classed.rows()[k];
      EXPECT_EQ(a.norm, b.norm);
      EXPECT_EQ(a.eps_nash_gap, b.eps_nash_gap);
      EXPECT_EQ(a.potential, b.potential);
      EXPECT_EQ(a.overall_cost, b.overall_cost);
      EXPECT_EQ(a.active_set_churn, b.active_set_churn);
      EXPECT_EQ(a.util_spread, b.util_spread);
    }
  }
}

// --- ring wiring --------------------------------------------------------

TEST(ConvergenceWiring, RingProtocolRecordsOneRowPerRoundClose) {
  const core::Instance inst = small_instance();
  obs::ConvergenceProbe probe;
  distributed::RingOptions opts;
  opts.probe = &probe;
  const distributed::RingResult res =
      distributed::run_ring_protocol(inst, opts);
  if constexpr (obs::kEnabled) {
    ASSERT_TRUE(res.converged);
    ASSERT_EQ(probe.size(), res.rounds);
    for (std::size_t k = 0; k < probe.size(); ++k) {
      EXPECT_EQ(probe.rows()[k].norm, res.norm_history[k]);
      EXPECT_TRUE(std::isfinite(probe.rows()[k].eps_nash_gap));
    }
    EXPECT_EQ(probe.rounds_to_tol(opts.tolerance),
              static_cast<std::int64_t>(res.rounds));
  } else {
    EXPECT_EQ(probe.size(), 0u);
  }
}

// --- run manifest -------------------------------------------------------

TEST(RunManifest, CollectRecordsBuildConfiguration) {
  const obs::RunManifest m = obs::RunManifest::collect();
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_EQ(m.obs_enabled, obs::kEnabled);
  EXPECT_EQ(m.check_enabled, util::kCheckEnabled);
  EXPECT_GE(m.threads, 1u);
}

TEST(RunManifest, SetOverwritesByKeyAndHashTracksContent) {
  obs::RunManifest m = obs::RunManifest::collect();
  m.set("seed", std::int64_t{42});
  const std::uint64_t h1 = m.config_hash();
  m.set("seed", std::int64_t{43});
  const std::uint64_t h2 = m.config_hash();
  EXPECT_NE(h1, h2);
  m.set("seed", std::int64_t{42});
  EXPECT_EQ(m.config_hash(), h1);
  ASSERT_EQ(m.extras.size(), 1u);  // overwritten, not appended
}

TEST(RunManifest, JsonRoundTripContainsEveryField) {
  obs::RunManifest m = obs::RunManifest::collect();
  m.set("utilization", 0.6);
  const std::string json = m.to_json();
  for (const char* key :
       {"\"git_sha\":", "\"obs\":", "\"check\":", "\"sanitize\":",
        "\"werror\":", "\"threads\":", "\"config_hash\":",
        "\"extras\":{\"utilization\":\"0.6\"}"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  TempFile file("manifest.json");
  m.write_json(file.path());
  EXPECT_EQ(file.contents(), json + "\n");
}

TEST(RunManifest, WriteJsonThrowsWhenTheWriteFails) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail a write";
  }
  const obs::RunManifest m = obs::RunManifest::collect();
  EXPECT_THROW(m.write_json("/dev/full"), std::runtime_error);
}

}  // namespace
