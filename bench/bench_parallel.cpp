// P3 — parallel execution: pooled Jacobi rounds and DES replication
// fan-out (src/util/parallel.hpp).
//
// Two grids, both keyed (m, n, threads):
//   * solver rows — wall time of one Jacobi (Simultaneous) best-reply
//     round at 1, 2, 4 and 8 threads, with the speedup over threads=1
//     and the bitwise profile cross-check (the pooled round must equal
//     the serial round exactly, not approximately);
//   * DES rows — a 64-replication batch of the system simulation, with
//     replications/second and the same exactness check on every
//     replication's sample path (stream family r is pinned to
//     replication r regardless of the executing worker).
//
// Timing convention (docs/PERFORMANCE.md): NASHLB_OBS=ON, NASHLB_CHECK=OFF.
// The speedup acceptance gate (>= 3x at 8 threads) only applies when the
// host actually has >= 8 hardware threads — the JSON records
// `hardware_threads` so readers can interpret the numbers; the
// determinism gate (max_profile_diff <= 1e-12, in practice exactly 0)
// applies everywhere, always.
//
// Outputs: bench_results/parallel.csv and BENCH_parallel.json (gated by
// tools/check_bench.py against the committed baseline).
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/dynamics.hpp"
#include "core/types.hpp"
#include "simmodel/replication.hpp"
#include "util/table.hpp"
#include "workload/configs.hpp"

namespace {

using namespace nashlb;

constexpr double kUtilization = 0.6;
constexpr std::size_t kJacobiRounds = 5;  // rounds per timed block
constexpr int kTimingRepeats = 3;         // blocks per cell; min reported
constexpr std::size_t kReplications = 64;
constexpr double kSpeedupGate = 3.0;      // at 8 threads, when hw allows

const std::vector<std::size_t> kThreadSweep = {1, 2, 4, 8};

/// Same heavy-head/long-tail mix as bench_scale: the published 10-user
/// pattern cycled without per-lap attenuation, so every user stays well
/// conditioned at any m.
std::vector<double> scaled_fractions(std::size_t m) {
  const std::vector<double> base = workload::default_user_fractions();
  std::vector<double> q(m);
  double total = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    q[j] = base[j % base.size()];
    total += q[j];
  }
  for (double& v : q) v /= total;
  return q;
}

/// Table-1-style heterogeneous system scaled to n computers.
core::Instance scaled_instance(std::size_t m, std::size_t n) {
  static const double kClassRates[4] = {10.0, 20.0, 50.0, 100.0};
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) rates[i] = kClassRates[i % 4];
  return workload::make_instance(std::move(rates), scaled_fractions(m),
                                 kUtilization);
}

struct Row {
  std::string kind;  // "jacobi" or "des"
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t threads = 0;
  double seconds = 0.0;  // per Jacobi round / per replication batch
  double speedup = 1.0;
  double max_profile_diff = 0.0;
  double replications_per_second = 0.0;  // DES rows only
};

/// Times a block of Jacobi rounds at `threads` and returns (seconds per
/// round, final profile). Tolerance 0 keeps the round count fixed unless
/// the dynamics diverges — and divergence, like everything else on this
/// path, is bitwise thread-count-independent.
std::pair<double, core::StrategyProfile> jacobi_block(
    const core::Instance& inst, std::size_t threads) {
  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.order = core::UpdateOrder::Simultaneous;
  opts.tolerance = 0.0;
  opts.max_iterations = kJacobiRounds;
  opts.threads = threads;
  double best = 0.0;
  core::StrategyProfile end(inst.num_users(), inst.num_computers());
  std::size_t iterations = kJacobiRounds;
  for (int rep = 0; rep < kTimingRepeats; ++rep) {
    const double t0 = bench::now_seconds();
    core::DynamicsResult res = core::best_reply_dynamics(inst, opts);
    const double dt = bench::now_seconds() - t0;
    if (rep == 0 || dt < best) best = dt;
    iterations = res.iterations;
    end = std::move(res.profile);
  }
  return {best / static_cast<double>(iterations == 0 ? 1 : iterations),
          std::move(end)};
}

std::vector<Row> jacobi_grid(std::size_t m, std::size_t n) {
  const core::Instance inst = scaled_instance(m, n);
  std::vector<Row> rows;
  double serial_seconds = 0.0;
  core::StrategyProfile serial_profile(inst.num_users(),
                                       inst.num_computers());
  for (std::size_t threads : kThreadSweep) {
    Row r;
    r.kind = "jacobi";
    r.m = m;
    r.n = n;
    r.threads = threads;
    auto [seconds, profile] = jacobi_block(inst, threads);
    if (threads == 1) {
      serial_seconds = seconds;
      serial_profile = std::move(profile);
      r.seconds = seconds;
      r.speedup = 1.0;
      r.max_profile_diff = 0.0;
    } else {
      r.seconds = seconds;
      r.speedup = serial_seconds / seconds;
      r.max_profile_diff = serial_profile.max_difference(profile);
    }
    rows.push_back(r);
  }
  return rows;
}

std::vector<Row> des_grid(std::size_t m, std::size_t n) {
  const core::Instance inst = scaled_instance(m, n);
  const core::StrategyProfile profile =
      core::StrategyProfile::proportional(inst);
  simmodel::ReplicationConfig base;
  base.replications = kReplications;
  base.base.horizon = 50.0;
  base.base.warmup = 5.0;

  std::vector<Row> rows;
  double serial_seconds = 0.0;
  std::vector<double> serial_means;
  for (std::size_t threads : kThreadSweep) {
    simmodel::ReplicationConfig cfg = base;
    cfg.threads = threads;
    double best = 0.0;
    simmodel::ReplicatedResult result;
    for (int rep = 0; rep < 2; ++rep) {
      const double t0 = bench::now_seconds();
      result = simmodel::replicate(inst, profile, cfg);
      const double dt = bench::now_seconds() - t0;
      if (rep == 0 || dt < best) best = dt;
    }
    Row r;
    r.kind = "des";
    r.m = m;
    r.n = n;
    r.threads = threads;
    r.seconds = best;
    r.replications_per_second = static_cast<double>(kReplications) / best;
    if (threads == 1) {
      serial_seconds = best;
      serial_means.clear();
      for (const simmodel::SimRunResult& run : result.runs) {
        serial_means.push_back(run.overall_mean_response);
      }
      r.speedup = 1.0;
      r.max_profile_diff = 0.0;
    } else {
      r.speedup = serial_seconds / best;
      double diff = 0.0;
      for (std::size_t k = 0; k < result.runs.size(); ++k) {
        const double d =
            std::abs(result.runs[k].overall_mean_response - serial_means[k]);
        if (d > diff) diff = d;
      }
      r.max_profile_diff = diff;
    }
    rows.push_back(r);
  }
  return rows;
}

void write_json(const std::vector<Row>& rows, unsigned hardware_threads) {
  std::FILE* f = std::fopen("BENCH_parallel.json", "w");
  if (!f) {
    std::fprintf(stderr, "bench_parallel: cannot write BENCH_parallel.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"parallel\",\n");
  obs::RunManifest manifest = bench::run_manifest("P3");
  manifest.set("utilization", kUtilization);
  manifest.set("hardware_threads", static_cast<std::int64_t>(hardware_threads));
  std::fprintf(f, "  \"manifest\": %s,\n", manifest.to_json().c_str());
  std::fprintf(f,
               "  \"description\": \"pooled Jacobi rounds and DES "
               "replication fan-out vs the serial path; max_profile_diff "
               "is the bitwise cross-check against threads=1\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hardware_threads);
  std::fprintf(f, "  \"utilization\": %.2f,\n", kUtilization);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const char* timing_field =
        r.kind == "jacobi" ? "round_seconds" : "batch_seconds";
    std::fprintf(f,
                 "    {\"kind\": \"%s\", \"m\": %zu, \"n\": %zu, "
                 "\"threads\": %zu, \"%s\": %.6e, \"speedup\": %.2f, "
                 "\"max_profile_diff\": %.3e",
                 r.kind.c_str(), r.m, r.n, r.threads, timing_field,
                 r.seconds, r.speedup, r.max_profile_diff);
    if (r.kind == "des") {
      std::fprintf(f, ", \"replications_per_second\": %.2f",
                   r.replications_per_second);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  bench::banner("P3", "parallel Jacobi rounds and DES replications",
                "Table-1 speed classes, m users at 60% utilization; "
                "threads in {1, 2, 4, 8}; every pooled result is checked "
                "bitwise against the serial path");
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  std::vector<Row> rows;
  for (const auto& [m, n] :
       std::vector<std::pair<std::size_t, std::size_t>>{{256, 64},
                                                        {1024, 64}}) {
    const std::vector<Row> grid = jacobi_grid(m, n);
    rows.insert(rows.end(), grid.begin(), grid.end());
  }
  {
    const std::vector<Row> grid = des_grid(16, 8);
    rows.insert(rows.end(), grid.begin(), grid.end());
  }

  util::Table table({"kind", "m", "n", "threads", "seconds", "speedup",
                     "max |Δ|", "reps/s"});
  auto csv = bench::csv("parallel",
                        {"kind", "m", "n", "threads", "seconds", "speedup",
                         "max_profile_diff", "replications_per_second"});
  for (const Row& r : rows) {
    table.add_row({r.kind, std::to_string(r.m), std::to_string(r.n),
                   std::to_string(r.threads), bench::num(r.seconds),
                   bench::num(r.speedup), bench::num(r.max_profile_diff),
                   r.kind == "des" ? bench::num(r.replications_per_second)
                                   : std::string("-")});
    if (csv) {
      csv->add_row({r.kind, std::to_string(r.m), std::to_string(r.n),
                    std::to_string(r.threads), bench::num(r.seconds),
                    bench::num(r.speedup), bench::num(r.max_profile_diff),
                    bench::num(r.replications_per_second)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("hardware threads: %u\n", hardware_threads);

  write_json(rows, hardware_threads);

  bool ok = true;
  for (const Row& r : rows) {
    if (!(r.max_profile_diff <= 1e-12)) {
      std::printf("FAIL: %s m=%zu n=%zu threads=%zu differs from serial "
                  "(max |Δ| = %.3e)\n",
                  r.kind.c_str(), r.m, r.n, r.threads, r.max_profile_diff);
      ok = false;
    }
  }
  if (hardware_threads >= 8) {
    for (const Row& r : rows) {
      const bool gated = r.threads == 8 &&
                         ((r.kind == "jacobi" && r.m == 1024) ||
                          r.kind == "des");
      if (gated && r.speedup < kSpeedupGate) {
        std::printf("FAIL: %s m=%zu n=%zu at 8 threads: speedup %.2fx "
                    "below the %.0fx acceptance gate\n",
                    r.kind.c_str(), r.m, r.n, r.speedup, kSpeedupGate);
        ok = false;
      }
    }
  } else {
    std::printf("speedup gate skipped: host has %u hardware thread(s), "
                "gate requires >= 8\n",
                hardware_threads);
  }
  std::printf("%s; wrote bench_results/parallel.csv and "
              "BENCH_parallel.json\n",
              ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
