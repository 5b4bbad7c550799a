// P2 — solver scaling: incremental core vs recompute-from-scratch.
//
// The paper's NASH algorithm is iterated best reply; Figure 3 shows the
// iteration count growing with the number of users. The seed
// implementation additionally paid O(m·n) per best-reply *call* (the
// aggregate loads were rebuilt from the whole profile every time), so one
// Gauss–Seidel round cost O(m²·n). The incremental core (core/load_state)
// carries the loads across the loop and makes a round O(m·n).
//
// This bench sweeps (m users, n computers) up to 4096×64 and, per size:
//   * times a block of full best-reply rounds under the old path (the
//     still-available allocating APIs, recompute-from-scratch) and under
//     the incremental path, and reports the per-round speedup;
//   * checks both paths land on the same profile after the timed rounds;
//   * runs the incremental dynamics to the paper's tolerance and — at
//     sizes where the old path is not prohibitively slow — the old path
//     too, verifying both converge to the same equilibrium within 1e-10.
//
// A user-class aggregation axis (docs/SCALING.md) extends the sweep to
// m = 10^6: the dynamics runs over weighted classes (round cost
// O(classes·n), independent of m), each row records the a-posteriori
// eps-Nash certificate of the expanded profile, and a singleton-partition
// run is checked bitwise against the per-user solver.
//
// Outputs: bench_results/scale.csv (one row per size), an informational
// pooled-Jacobi threads sweep in bench_results/scale_threads.csv (the
// gated threads grid lives in bench_parallel / BENCH_parallel.json),
// bench_results/scale_classes.csv (the class axis), and a
// machine-readable BENCH_scale.json with the headline speedup at
// m=512, n=64 — the perf trajectory future PRs measure against (see
// docs/PERFORMANCE.md).
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/best_reply.hpp"
#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
#include "core/load_state.hpp"
#include "core/user_classes.hpp"
#include "stats/rng.hpp"
#include "util/table.hpp"
#include "workload/configs.hpp"

namespace {

using namespace nashlb;

constexpr double kUtilization = 0.6;
/// Paper tolerance for the Table 1 system (m = 10). The stopping norm is a
/// *sum* of per-user response-time deltas, so the bench scales the
/// tolerance by m/10 to keep the per-user stringency constant across the
/// sweep instead of silently tightening it 100x at m = 1024.
constexpr double kTolerancePerTenUsers = 1e-4;
constexpr int kTimedRounds = 3;    // rounds per timed block
constexpr int kTimingRepeats = 3;  // blocks per path; min is reported
/// Old-path full convergence is O(m²·n·iterations); above this user count
/// only the timed-block profile agreement is checked (the CSV records
/// which check ran).
constexpr std::size_t kMaxUsersForOldSolve = 512;

/// Heavy-head/long-tail user mix: the published 10-user pattern cycled
/// *without* the per-lap attenuation of workload::user_fractions. The
/// attenuated mix halves each lap, so by m = 512 the smallest users carry
/// ~1e-16 of the flow — numerically degenerate knife-edge players whose
/// best reply flips between equal-rate computers on 1e-16 load noise. A
/// scaling bench needs every user well conditioned; this keeps all phi_j
/// within 7.5x of each other while preserving the paper's size spread.
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

/// Table-1-style heterogeneous system scaled to n computers: the four
/// speed classes {10, 20, 50, 100} jobs/s, cycled.
core::Instance scaled_instance(std::size_t m, std::size_t n) {
  static const double kClassRates[4] = {10.0, 20.0, 50.0, 100.0};
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) rates[i] = kClassRates[i % 4];
  return workload::make_instance(std::move(rates), scaled_fractions(m),
                                 kUtilization);
}

double tolerance_for(std::size_t m) {
  return kTolerancePerTenUsers * (static_cast<double>(m) / 10.0);
}

/// One Gauss–Seidel round, seed implementation: every best reply and
/// response time recomputes the aggregate loads from the m×n profile.
void scratch_round(const core::Instance& inst, core::StrategyProfile& s,
                   std::vector<double>& last_times) {
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    s.set_row(j, core::best_reply(inst, s, j));
    last_times[j] = core::user_response_time(inst, s, j);
  }
}

/// One Gauss–Seidel round on the incremental core: O(n) per move.
void incremental_round(const core::Instance& inst, core::StrategyProfile& s,
                       core::LoadState& state, core::BestReplyWorkspace& ws,
                       std::vector<double>& last_times) {
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    state.commit_row(s, j, core::best_reply_into(inst, s, state, j, ws));
    last_times[j] = state.user_response_time(s, j);
  }
}

/// Seed dynamics loop (scratch path) to convergence; returns iterations.
std::size_t scratch_solve(const core::Instance& inst,
                          core::StrategyProfile& s, double tolerance,
                          std::size_t max_rounds) {
  std::vector<double> last = core::user_response_times(inst, s);
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    double norm = 0.0;
    for (std::size_t j = 0; j < inst.num_users(); ++j) {
      s.set_row(j, core::best_reply(inst, s, j));
      const double d = core::user_response_time(inst, s, j);
      norm += std::fabs(d - last[j]);
      last[j] = d;
    }
    if (norm <= tolerance) return round;
  }
  return max_rounds;
}

struct SizeResult {
  std::size_t m = 0;
  std::size_t n = 0;
  double old_round_seconds = 0.0;
  double incr_round_seconds = 0.0;
  double speedup = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
  std::string equilibrium_check;  // "full_solve" or "timed_rounds"
  double max_profile_diff = 0.0;
  double best_reply_gap = 0.0;
};

SizeResult run_size(std::size_t m, std::size_t n) {
  const core::Instance inst = scaled_instance(m, n);
  const core::StrategyProfile start = core::StrategyProfile::proportional(inst);
  SizeResult r;
  r.m = m;
  r.n = n;

  // --- per-round timing, both paths from the identical start ------------
  double old_block = 0.0;
  double incr_block = 0.0;
  core::StrategyProfile old_end = start;
  core::StrategyProfile incr_end = start;
  for (int rep = 0; rep < kTimingRepeats; ++rep) {
    {
      core::StrategyProfile s = start;
      std::vector<double> last(m, 0.0);
      const double t0 = bench::now_seconds();
      for (int k = 0; k < kTimedRounds; ++k) scratch_round(inst, s, last);
      const double dt = bench::now_seconds() - t0;
      if (rep == 0 || dt < old_block) old_block = dt;
      old_end = std::move(s);
    }
    {
      core::StrategyProfile s = start;
      core::LoadState state(inst, s);
      core::BestReplyWorkspace ws;
      ws.resize(n);
      std::vector<double> last(m, 0.0);
      const double t0 = bench::now_seconds();
      for (int k = 0; k < kTimedRounds; ++k) {
        incremental_round(inst, s, state, ws, last);
      }
      const double dt = bench::now_seconds() - t0;
      if (rep == 0 || dt < incr_block) incr_block = dt;
      incr_end = std::move(s);
    }
  }
  r.old_round_seconds = old_block / kTimedRounds;
  r.incr_round_seconds = incr_block / kTimedRounds;
  r.speedup = r.old_round_seconds / r.incr_round_seconds;
  r.max_profile_diff = old_end.max_difference(incr_end);

  // --- equilibrium: incremental solve, old-path cross-check -------------
  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.tolerance = tolerance_for(m);
  opts.max_iterations = 5000;
  const core::DynamicsResult res = core::best_reply_dynamics(inst, opts);
  r.iterations = res.iterations;
  r.converged = res.converged;
  r.best_reply_gap = core::max_best_reply_gain(inst, res.profile);

  if (m <= kMaxUsersForOldSolve) {
    core::StrategyProfile old_eq = start;
    (void)scratch_solve(inst, old_eq, opts.tolerance, opts.max_iterations);
    r.max_profile_diff =
        std::max(r.max_profile_diff, res.profile.max_difference(old_eq));
    r.equilibrium_check = "full_solve";
  } else {
    r.equilibrium_check = "timed_rounds";
  }
  return r;
}

// --- user-class aggregation axis (docs/SCALING.md) ----------------------
//
// The per-user sweep tops out at m = 4096 because a round is O(m·n); the
// class dynamics makes a round O(classes · n), so this axis pushes m to
// 10^6. Two populations per size:
//   * classes_exact      — the Table-1 mix cycled (10 distinct phi
//                          values), grouped by UserClassPartition::exact;
//   * classes_quantized  — log-uniform heterogeneous demands spanning a
//                          factor of 100, bucketed at eps_phi = 1e-3
//                          (capped at 512 classes), with the a-posteriori
//                          eps-Nash certificate evaluated on the result.
constexpr double kEpsPhi = 1e-3;
constexpr std::size_t kMaxClasses = 512;

struct ClassResult {
  std::string kind;  // "classes_exact" | "classes_quantized"
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t classes = 0;
  double build_seconds = 0.0;       // partition construction
  double solve_seconds = 0.0;       // class dynamics to tolerance
  double per_round_seconds = 0.0;   // solve_seconds / iterations
  std::size_t iterations = 0;
  bool converged = false;
  double eps_nash_measured = 0.0;   // certificate: realized relative gain
  double eps_nash_bound = 0.0;      // certificate: analytic bound
  double max_rel_deviation = 0.0;   // realized bucketing width
};

/// Log-uniform heterogeneous demand mix spanning `spread`x between the
/// lightest and heaviest user (deterministic: fixed Xoshiro256 seed).
core::Instance heterogeneous_instance(std::size_t m, std::size_t n,
                                      double spread = 100.0) {
  static const double kClassRates[4] = {10.0, 20.0, 50.0, 100.0};
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) rates[i] = kClassRates[i % 4];
  stats::Xoshiro256 rng(0x5ca1ab1eULL + m);
  std::vector<double> q(m);
  double total = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    q[j] = std::exp(rng.next_double() * std::log(spread));
    total += q[j];
  }
  for (double& v : q) v /= total;
  return workload::make_instance(std::move(rates), std::move(q),
                                 kUtilization);
}

ClassResult run_class_size(const core::Instance& inst, std::size_t m,
                           std::size_t n, bool quantized) {
  ClassResult r;
  r.kind = quantized ? "classes_quantized" : "classes_exact";
  r.m = m;
  r.n = n;

  const double tb0 = bench::now_seconds();
  const core::UserClassPartition part =
      quantized ? core::UserClassPartition::quantized(inst, kEpsPhi,
                                                      kMaxClasses)
                : core::UserClassPartition::exact(inst);
  r.build_seconds = bench::now_seconds() - tb0;
  r.classes = part.num_classes();
  r.max_rel_deviation = part.max_rel_deviation();

  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.tolerance = tolerance_for(m);
  opts.max_iterations = 5000;
  opts.classes = &part;
  std::optional<core::DynamicsResult> res;
  for (int rep = 0; rep < kTimingRepeats; ++rep) {
    const double t0 = bench::now_seconds();
    res = core::best_reply_dynamics(inst, opts);
    const double dt = bench::now_seconds() - t0;
    if (rep == 0 || dt < r.solve_seconds) r.solve_seconds = dt;
  }
  r.iterations = res->iterations;
  r.converged = res->converged;
  r.per_round_seconds =
      r.solve_seconds / static_cast<double>(std::max<std::size_t>(
                            res->iterations, 1));

  const core::EpsNashCertificate cert =
      core::certify_eps_nash(inst, part, res->profile);
  r.eps_nash_measured = cert.eps_nash;
  r.eps_nash_bound = cert.analytic_bound;
  return r;
}

/// The singleton partition must reproduce the per-user solver bitwise —
/// the structural pin that the class code path *is* the per-user path
/// when every class has one member.
bool check_singleton_bitwise(std::size_t m, std::size_t n) {
  const core::Instance inst = scaled_instance(m, n);
  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.tolerance = tolerance_for(m);
  opts.max_iterations = 5000;
  const core::DynamicsResult per_user = core::best_reply_dynamics(inst, opts);
  const core::UserClassPartition part =
      core::UserClassPartition::singletons(inst);
  opts.classes = &part;
  const core::DynamicsResult via_classes =
      core::best_reply_dynamics(inst, opts);
  const double diff = per_user.profile.max_difference(via_classes.profile);
  if (diff != 0.0 || per_user.iterations != via_classes.iterations) {
    std::printf("FAIL: singleton class dynamics differs from per-user "
                "solver at m=%zu n=%zu (|Δs| = %.3e, iters %zu vs %zu)\n",
                m, n, diff, per_user.iterations, via_classes.iterations);
    return false;
  }
  return true;
}

void write_json(const std::vector<SizeResult>& rows,
                const std::vector<ClassResult>& class_rows,
                const SizeResult* headline) {
  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  if (!f) {
    std::fprintf(stderr, "bench_scale: cannot write BENCH_scale.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale\",\n");
  obs::RunManifest manifest = bench::run_manifest("P2");
  manifest.set("utilization", kUtilization);
  manifest.set("tolerance_per_ten_users", kTolerancePerTenUsers);
  std::fprintf(f, "  \"manifest\": %s,\n", manifest.to_json().c_str());
  std::fprintf(f,
               "  \"description\": \"per-round wall time of one full "
               "best-reply round: recompute-from-scratch (seed) vs "
               "incremental LoadState core\",\n");
  std::fprintf(f,
               "  \"utilization\": %.2f,\n  \"tolerance_per_ten_users\": "
               "%g,\n",
               kUtilization, kTolerancePerTenUsers);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"m\": %zu, \"n\": %zu, \"old_round_seconds\": %.6e, "
        "\"incr_round_seconds\": %.6e, \"speedup\": %.2f, "
        "\"iterations\": %zu, \"converged\": %s, "
        "\"equilibrium_check\": \"%s\", \"max_profile_diff\": %.3e, "
        "\"best_reply_gap\": %.3e}%s\n",
        r.m, r.n, r.old_round_seconds, r.incr_round_seconds, r.speedup,
        r.iterations, r.converged ? "true" : "false",
        r.equilibrium_check.c_str(), r.max_profile_diff, r.best_reply_gap,
        i + 1 < rows.size() || !class_rows.empty() ? "," : "");
  }
  for (std::size_t i = 0; i < class_rows.size(); ++i) {
    const ClassResult& r = class_rows[i];
    std::fprintf(
        f,
        "    {\"kind\": \"%s\", \"m\": %zu, \"n\": %zu, \"classes\": %zu, "
        "\"per_round_seconds\": %.6e, \"iterations\": %zu, "
        "\"converged\": %s, \"eps_nash_measured\": %.3e, "
        "\"eps_nash_bound\": %.3e}%s\n",
        r.kind.c_str(), r.m, r.n, r.classes, r.per_round_seconds,
        r.iterations, r.converged ? "true" : "false", r.eps_nash_measured,
        r.eps_nash_bound, i + 1 < class_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (headline) {
    std::fprintf(f,
                 "  \"headline\": {\"m\": %zu, \"n\": %zu, \"speedup\": "
                 "%.2f, \"max_profile_diff\": %.3e}\n",
                 headline->m, headline->n, headline->speedup,
                 headline->max_profile_diff);
  } else {
    std::fprintf(f, "  \"headline\": null\n");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Wall seconds per Jacobi round at a given thread count, plus the final
/// profile for the bitwise cross-check. The dynamics runs a fixed block
/// of Simultaneous rounds (tolerance 0 so it never stops early unless it
/// diverges, in which case every thread count diverges on the same
/// round and the comparison still holds).
std::pair<double, core::StrategyProfile> jacobi_rounds(
    const core::Instance& inst, std::size_t threads, std::size_t rounds) {
  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.order = core::UpdateOrder::Simultaneous;
  opts.tolerance = 0.0;
  opts.max_iterations = rounds;
  opts.threads = threads;
  double best = 0.0;
  core::StrategyProfile end(inst.num_users(), inst.num_computers());
  std::size_t iterations = rounds;
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

/// The pooled-Jacobi threads sweep (informational, CSV-only: wall times
/// on a shared box are too noisy to gate; BENCH_parallel.json carries
/// the gated grid). The bitwise cross-check against threads=1 is still
/// enforced here — determinism is not allowed to be noisy.
bool run_threads_sweep() {
  const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
      {512, 64}, {1024, 64}, {4096, 64}};
  constexpr std::size_t kRounds = 5;
  util::Table table(
      {"m", "n", "threads", "round (s)", "speedup vs 1", "max |Δs|"});
  auto csv = bench::csv("scale_threads",
                        {"m", "n", "threads", "round_seconds",
                         "speedup_vs_serial", "max_profile_diff"});
  bool ok = true;
  for (const auto& [m, n] : sizes) {
    const core::Instance inst = scaled_instance(m, n);
    const auto [serial_seconds, serial_profile] =
        jacobi_rounds(inst, 1, kRounds);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      const auto [seconds, profile] =
          threads == 1 ? std::pair{serial_seconds, serial_profile}
                       : jacobi_rounds(inst, threads, kRounds);
      const double diff = serial_profile.max_difference(profile);
      table.add_row({std::to_string(m), std::to_string(n),
                     std::to_string(threads), bench::num(seconds),
                     bench::num(serial_seconds / seconds), bench::num(diff)});
      if (csv) {
        csv->add_row({std::to_string(m), std::to_string(n),
                      std::to_string(threads), bench::num(seconds),
                      bench::num(serial_seconds / seconds),
                      bench::num(diff)});
      }
      if (diff != 0.0) {
        std::printf("FAIL: pooled Jacobi differs from serial at m=%zu "
                    "n=%zu threads=%zu (|Δs| = %.3e)\n",
                    m, n, threads, diff);
        ok = false;
      }
    }
  }
  std::printf("pooled Jacobi threads sweep (%zu rounds per block):\n%s\n",
              kRounds, table.str().c_str());
  return ok;
}

}  // namespace

int main() {
  bench::banner("P2", "solver scaling: incremental core vs scratch",
                "Table-1 speed classes cycled to n computers, m users at "
                "60% utilization; per-round wall time of both paths");

  const std::vector<std::pair<std::size_t, std::size_t>> sweep = {
      {32, 16}, {128, 16}, {512, 16}, {32, 64}, {128, 64},
      {512, 64}, {1024, 64}, {2048, 64}, {4096, 64}};

  util::Table table({"m", "n", "old round (s)", "incr round (s)", "speedup",
                     "iters", "equilibrium check", "max |Δs|", "gap (s)"});
  auto csv = bench::csv(
      "scale", {"m", "n", "old_round_seconds", "incr_round_seconds",
                "speedup", "iterations", "converged", "equilibrium_check",
                "max_profile_diff", "best_reply_gap"});

  std::vector<SizeResult> rows;
  const SizeResult* headline = nullptr;
  for (const auto& [m, n] : sweep) {
    rows.push_back(run_size(m, n));
    const SizeResult& r = rows.back();
    table.add_row({std::to_string(r.m), std::to_string(r.n),
                   bench::num(r.old_round_seconds),
                   bench::num(r.incr_round_seconds), bench::num(r.speedup),
                   std::to_string(r.iterations), r.equilibrium_check,
                   bench::num(r.max_profile_diff),
                   bench::num(r.best_reply_gap)});
    if (csv) {
      csv->add_row({std::to_string(r.m), std::to_string(r.n),
                    bench::num(r.old_round_seconds),
                    bench::num(r.incr_round_seconds), bench::num(r.speedup),
                    std::to_string(r.iterations), r.converged ? "1" : "0",
                    r.equilibrium_check, bench::num(r.max_profile_diff),
                    bench::num(r.best_reply_gap)});
    }
  }
  for (const SizeResult& r : rows) {
    if (r.m == 512 && r.n == 64) headline = &r;
  }
  std::printf("%s\n", table.str().c_str());

  // --- user-class aggregation axis (docs/SCALING.md) --------------------
  const std::vector<std::pair<std::size_t, std::size_t>> class_sweep = {
      {4096, 64}, {65536, 64}, {1048576, 64}};
  util::Table ctable({"kind", "m", "n", "classes", "round (s)", "iters",
                      "eps measured", "eps bound"});
  auto ccsv = bench::csv(
      "scale_classes",
      {"kind", "m", "n", "classes", "build_seconds", "solve_seconds",
       "per_round_seconds", "iterations", "converged", "eps_nash_measured",
       "eps_nash_bound", "max_rel_deviation"});
  std::vector<ClassResult> class_rows;
  for (const auto& [m, n] : class_sweep) {
    for (const bool quantized : {false, true}) {
      const core::Instance inst =
          quantized ? heterogeneous_instance(m, n) : scaled_instance(m, n);
      class_rows.push_back(run_class_size(inst, m, n, quantized));
      const ClassResult& r = class_rows.back();
      ctable.add_row({r.kind, std::to_string(r.m), std::to_string(r.n),
                      std::to_string(r.classes),
                      bench::num(r.per_round_seconds),
                      std::to_string(r.iterations),
                      bench::num(r.eps_nash_measured),
                      bench::num(r.eps_nash_bound)});
      if (ccsv) {
        ccsv->add_row({r.kind, std::to_string(r.m), std::to_string(r.n),
                       std::to_string(r.classes), bench::num(r.build_seconds),
                       bench::num(r.solve_seconds),
                       bench::num(r.per_round_seconds),
                       std::to_string(r.iterations), r.converged ? "1" : "0",
                       bench::num(r.eps_nash_measured),
                       bench::num(r.eps_nash_bound),
                       bench::num(r.max_rel_deviation)});
      }
    }
  }
  std::printf("user-class aggregation (eps_phi = %g, <= %zu classes):\n%s\n",
              kEpsPhi, kMaxClasses, ctable.str().c_str());

  write_json(rows, class_rows, headline);

  bool ok = run_threads_sweep();
  ok = check_singleton_bitwise(512, 64) && ok;

  // Class-axis gates: every row must converge with a certified eps-Nash
  // bound <= 1e-3, and a class round at m = 10^6 must stay within 2x of
  // the per-user round at m = 4096 — the whole point of the aggregation.
  const SizeResult* per_user_4096 = nullptr;
  for (const SizeResult& r : rows) {
    if (r.m == 4096 && r.n == 64) per_user_4096 = &r;
  }
  for (const ClassResult& r : class_rows) {
    if (!r.converged) {
      std::printf("FAIL: class dynamics did not converge (%s m=%zu)\n",
                  r.kind.c_str(), r.m);
      ok = false;
    }
    if (!(r.eps_nash_bound <= 1e-3)) {
      std::printf("FAIL: eps_nash_bound %.3e > 1e-3 (%s m=%zu)\n",
                  r.eps_nash_bound, r.kind.c_str(), r.m);
      ok = false;
    }
    if (r.m == 1048576 && per_user_4096 &&
        !(r.per_round_seconds <= 2.0 * per_user_4096->incr_round_seconds)) {
      std::printf("FAIL: class round at m=10^6 (%.3e s, %s) exceeds 2x the "
                  "per-user round at m=4096 (%.3e s)\n",
                  r.per_round_seconds, r.kind.c_str(),
                  per_user_4096->incr_round_seconds);
      ok = false;
    }
  }
  if (headline) {
    std::printf("headline (m=512, n=64): %.1fx per-round speedup, "
                "paths agree to %.2e\n",
                headline->speedup, headline->max_profile_diff);
    if (headline->speedup < 5.0) {
      std::printf("FAIL: speedup below the 5x acceptance threshold\n");
      ok = false;
    }
  }
  for (const SizeResult& r : rows) {
    if (!(r.max_profile_diff <= 1e-10)) {
      std::printf("FAIL: paths disagree at m=%zu n=%zu (|Δs| = %.3e)\n", r.m,
                  r.n, r.max_profile_diff);
      ok = false;
    }
    if (!r.converged) {
      std::printf("FAIL: incremental dynamics did not converge at m=%zu "
                  "n=%zu\n",
                  r.m, r.n);
      ok = false;
    }
  }
  std::printf("%s; wrote bench_results/scale.csv, "
              "bench_results/scale_threads.csv, "
              "bench_results/scale_classes.csv and BENCH_scale.json\n",
              ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
