// P2 — solver scaling: the NASH equilibrium from 32 to 10^6 users.
//
// The paper's NASH algorithm is iterated best reply; Figure 3 shows the
// iteration count growing with the number of users. The incremental core
// (core/load_state) makes a Gauss–Seidel round O(m·n), so this bench
// sweeps (m users, n computers) up to 4096×64 and, per size, runs the
// dynamics to the paper's tolerance and records the rounds it took and
// the equilibrium certificate (the largest unilateral best-reply gain).
//
// A user-class aggregation axis (docs/SCALING.md) extends the sweep to
// m = 10^6: the dynamics runs over weighted classes (round cost
// O(classes·n), independent of m), and each row records the a-posteriori
// eps-Nash certificate of the expanded profile.
//
// Every column is deterministic, so both CSVs are goldens
// (tests/golden/, the check_golden ctest). The bench exits non-zero when
// a row fails to converge or a class row's certified eps-Nash bound
// exceeds 1e-3. Timing belongs to the benchmark (nashbench/).
//
// Outputs: bench_results/scale.csv (one row per size) and
// bench_results/scale_classes.csv (the class axis).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dynamics.hpp"
#include "core/equilibrium.hpp"
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

core::DynamicsOptions options_for(std::size_t m) {
  core::DynamicsOptions opts;
  opts.init = core::Initialization::Proportional;
  opts.tolerance = kTolerancePerTenUsers * (static_cast<double>(m) / 10.0);
  opts.max_iterations = 5000;
  return opts;
}

// --- user-class aggregation axis (docs/SCALING.md) ----------------------
//
// The per-user sweep tops out at m = 4096 because a round is O(m·n); the
// class dynamics makes a round O(classes · n), so this axis pushes m to
// 10^6. Two populations per size:
//   * classes_exact      — the Table-1 mix cycled (10 distinct phi
//                          values), grouped by UserClassPartition::exact;
//   * classes_quantized  — log-uniform heterogeneous demands spanning a
//                          factor of 100, quantized with eps_phi = 1e-3
//                          and a cap of 512 classes, with the
//                          a-posteriori eps-Nash certificate evaluated on
//                          the result. The cap binds at every size, so
//                          the cells are widened to span the range in
//                          exactly 512 and the realized width
//                          (max_rel_deviation) comes from kMaxClasses
//                          alone: eps_phi shapes none of these rows.
constexpr double kEpsPhi = 1e-3;
constexpr std::size_t kMaxClasses = 512;

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

}  // namespace

int main() {
  bench::banner("P2", "solver scaling: per-user and class dynamics",
                "Table-1 speed classes cycled to n computers, m users at "
                "60% utilization; rounds to tolerance and the equilibrium "
                "certificate per size");
  bool ok = true;

  const std::vector<std::pair<std::size_t, std::size_t>> sweep = {
      {32, 16}, {128, 16}, {512, 16}, {32, 64}, {128, 64},
      {512, 64}, {1024, 64}, {2048, 64}, {4096, 64}};
  util::Table table({"m", "n", "iters", "converged", "gap (s)"});
  auto csv = bench::csv(
      "scale", {"m", "n", "iterations", "converged", "best_reply_gap"});
  for (const auto& [m, n] : sweep) {
    const core::Instance inst = scaled_instance(m, n);
    const core::DynamicsResult res =
        core::best_reply_dynamics(inst, options_for(m));
    const std::vector<std::string> row = {
        std::to_string(m), std::to_string(n), std::to_string(res.iterations),
        res.converged ? "1" : "0",
        bench::num(core::max_best_reply_gain(inst, res.profile))};
    table.add_row(row);
    if (csv) csv->add_row(row);
    if (!res.converged) {
      std::printf("FAIL: dynamics did not converge at m=%zu n=%zu\n", m, n);
      ok = false;
    }
  }
  std::printf("%s\n", table.str().c_str());

  const std::vector<std::pair<std::size_t, std::size_t>> class_sweep = {
      {4096, 64}, {65536, 64}, {1048576, 64}};
  const std::vector<std::string> class_header = {
      "kind", "m", "n", "classes", "iterations", "converged",
      "eps_nash_measured", "eps_nash_bound", "max_rel_deviation"};
  util::Table ctable(class_header);
  auto ccsv = bench::csv("scale_classes", class_header);
  for (const auto& [m, n] : class_sweep) {
    for (const bool quantized : {false, true}) {
      const char* kind = quantized ? "classes_quantized" : "classes_exact";
      const core::Instance inst =
          quantized ? heterogeneous_instance(m, n) : scaled_instance(m, n);
      const core::UserClassPartition part =
          quantized ? core::UserClassPartition::quantized(inst, kEpsPhi,
                                                          kMaxClasses)
                    : core::UserClassPartition::exact(inst);
      core::DynamicsOptions opts = options_for(m);
      opts.classes = &part;
      const core::DynamicsResult res = core::best_reply_dynamics(inst, opts);
      const core::EpsNashCertificate cert =
          core::certify_eps_nash(inst, part, res.profile);
      const std::vector<std::string> row = {
          kind,
          std::to_string(m),
          std::to_string(n),
          std::to_string(part.num_classes()),
          std::to_string(res.iterations),
          res.converged ? "1" : "0",
          bench::num(cert.eps_nash),
          bench::num(cert.analytic_bound),
          bench::num(part.max_rel_deviation())};
      ctable.add_row(row);
      if (ccsv) ccsv->add_row(row);
      if (!res.converged) {
        std::printf("FAIL: class dynamics did not converge (%s m=%zu)\n",
                    kind, m);
        ok = false;
      }
      if (!(cert.analytic_bound <= 1e-3)) {
        std::printf("FAIL: eps_nash_bound %.3e > 1e-3 (%s m=%zu)\n",
                    cert.analytic_bound, kind, m);
        ok = false;
      }
    }
  }
  std::printf("user-class aggregation (<= %zu classes; the cap, not "
              "eps_phi = %g, sets the quantized widths):\n%s\n",
              kMaxClasses, kEpsPhi, ctable.str().c_str());

  std::printf("%s; wrote bench_results/scale.csv and "
              "bench_results/scale_classes.csv\n",
              ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}
