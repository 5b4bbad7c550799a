// P5 — convergence telemetry: the equilibrium trajectory as a first-class
// artifact.
//
// Runs the Table 1 system through every wiring of the
// obs::ConvergenceProbe — the three in-memory update orders (RoundRobin,
// RandomOrder, Jacobi), a quantized user-class run, and the distributed
// ring protocol — and reports per run: rounds executed, rounds to the
// stopping tolerance, and the final certified eps-Nash gap. The Jacobi
// row is the honest negative: at 60% utilization the simultaneous update
// diverges (ablation A3), and the probe records the blow-up trajectory
// instead of a convergence one.
//
// Outputs:
//   bench_results/convergence_roundrobin.csv    RoundRobin probe series
//   bench_results/convergence_summary.csv       one row per run
//
// convergence_summary.csv is a golden (tests/golden/, the check_golden
// ctest): `iterations`, `rounds_to_tol` and `final_eps_nash` (full
// precision, empty when no round had a finite gap) compare byte for
// byte. Under -DNASHLB_OBS=OFF the probe columns read 0 and the golden
// is skipped.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dynamics.hpp"
#include "core/user_classes.hpp"
#include "distributed/ring_protocol.hpp"
#include "obs/convergence.hpp"
#include "obs/json.hpp"
#include "workload/configs.hpp"

namespace {

constexpr double kUtilization = 0.6;
constexpr double kTolerance = 1e-6;
constexpr double kRingTolerance = 1e-4;
constexpr std::size_t kClassUsers = 512;
constexpr double kEpsPhi = 0.05;
constexpr std::size_t kMaxClasses = 64;

struct Row {
  std::string kind;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t classes = 0;  // 0 = per-user row
  std::size_t iterations = 0;
  bool converged = false;
  std::int64_t rounds_to_tol = 0;
  double final_eps_nash = 0.0;  // NaN when no round had a finite gap
};

Row probe_row(const std::string& kind, const nashlb::obs::ConvergenceProbe& probe,
              std::size_t m, std::size_t n, std::size_t classes,
              std::size_t iterations, bool converged, double tolerance) {
  Row r;
  r.kind = kind;
  r.m = m;
  r.n = n;
  r.classes = classes;
  r.iterations = iterations;
  r.converged = converged;
  r.rounds_to_tol = probe.rounds_to_tol(tolerance);
  r.final_eps_nash = probe.final_eps_nash();
  return r;
}

}  // namespace

int main() {
  using namespace nashlb;
  bench::banner("P5", "convergence telemetry: probe wiring",
                "Table 1 system at 60% utilization; RoundRobin / Random / "
                "Jacobi, quantized classes, and the ring protocol under "
                "one ConvergenceProbe per run");

  std::vector<Row> rows;
  bool ok = true;

  const core::Instance inst = workload::table1_instance(kUtilization);
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();

  // --- The three in-memory update orders ---------------------------------
  struct OrderCase {
    const char* kind;
    core::UpdateOrder order;
  };
  const OrderCase orders[] = {
      {"roundrobin", core::UpdateOrder::RoundRobin},
      {"random", core::UpdateOrder::RandomOrder},
      {"jacobi", core::UpdateOrder::Simultaneous},
  };
  for (const OrderCase& oc : orders) {
    obs::ConvergenceProbe probe;
    core::DynamicsOptions opts;
    opts.order = oc.order;
    opts.tolerance = kTolerance;
    opts.max_iterations = 5000;
    opts.probe = &probe;
    const core::DynamicsResult res = core::best_reply_dynamics(inst, opts);
    if (obs::kEnabled && probe.size() != res.iterations) {
      std::fprintf(stderr,
                   "FAIL: %s probe recorded %zu rows over %zu rounds\n",
                   oc.kind, probe.size(), res.iterations);
      ok = false;
    }
    rows.push_back(probe_row(oc.kind, probe, m, n, 0, res.iterations,
                             res.converged, kTolerance));
    if (std::string(oc.kind) == "roundrobin") {
      probe.write_csv("bench_results/convergence_roundrobin.csv");
    }
  }

  // --- Quantized user classes --------------------------------------------
  {
    const core::Instance big =
        workload::table1_instance(kUtilization, kClassUsers);
    const core::UserClassPartition part =
        core::UserClassPartition::quantized(big, kEpsPhi, kMaxClasses);
    obs::ConvergenceProbe probe;
    core::DynamicsOptions opts;
    opts.tolerance = kTolerance;
    opts.max_iterations = 5000;
    opts.classes = &part;
    opts.probe = &probe;
    const core::DynamicsResult res = core::best_reply_dynamics(big, opts);
    rows.push_back(probe_row("classes", probe, kClassUsers, n,
                             part.num_classes(), res.iterations,
                             res.converged, kTolerance));
    if (!res.converged) {
      std::fprintf(stderr, "FAIL: class-mode run did not converge\n");
      ok = false;
    }
  }

  // --- The distributed ring protocol -------------------------------------
  {
    obs::ConvergenceProbe probe;
    distributed::RingOptions opts;
    opts.tolerance = kRingTolerance;
    opts.probe = &probe;
    const distributed::RingResult res =
        distributed::run_ring_protocol(inst, opts);
    if (obs::kEnabled && probe.size() != res.rounds) {
      std::fprintf(stderr,
                   "FAIL: ring probe recorded %zu rows over %zu rounds\n",
                   probe.size(), res.rounds);
      ok = false;
    }
    rows.push_back(probe_row("ring", probe, m, n, 0, res.rounds,
                             res.converged, kRingTolerance));
  }

  // --- Console summary + artifacts ---------------------------------------
  util::Table table({"kind", "m", "n", "classes", "rounds", "converged",
                     "rounds_to_tol", "final eps-Nash (s)"});
  for (const Row& r : rows) {
    table.add_row({r.kind, std::to_string(r.m), std::to_string(r.n),
                   std::to_string(r.classes), std::to_string(r.iterations),
                   r.converged ? "yes" : "no",
                   std::to_string(r.rounds_to_tol),
                   std::isfinite(r.final_eps_nash)
                       ? bench::num(r.final_eps_nash)
                       : "n/a (diverged)"});
  }
  std::printf("%s\n", table.str().c_str());

  if (auto csv = bench::csv("convergence_summary",
                            {"kind", "m", "n", "classes", "iterations",
                             "converged", "rounds_to_tol", "final_eps_nash"})) {
    for (const Row& r : rows) {
      csv->add_row({r.kind, std::to_string(r.m), std::to_string(r.n),
                    std::to_string(r.classes), std::to_string(r.iterations),
                    r.converged ? "1" : "0", std::to_string(r.rounds_to_tol),
                    std::isfinite(r.final_eps_nash)
                        ? obs::json_number(r.final_eps_nash)
                        : ""});
    }
  }

  // --- Gates -------------------------------------------------------------
  for (const Row& r : rows) {
    if (r.kind == "jacobi") continue;  // the documented divergence case
    if (!r.converged) {
      std::fprintf(stderr, "FAIL: %s did not converge\n", r.kind.c_str());
      ok = false;
    }
    if (obs::kEnabled &&
        (r.rounds_to_tol == 0 ||
         r.rounds_to_tol != static_cast<std::int64_t>(r.iterations))) {
      std::fprintf(stderr,
                   "FAIL: %s rounds_to_tol=%lld != iterations=%zu\n",
                   r.kind.c_str(), static_cast<long long>(r.rounds_to_tol),
                   r.iterations);
      ok = false;
    }
    // The quantized class run's gap is dominated by the eps_phi
    // aggregation error (docs/SCALING.md), not the dynamics tolerance,
    // so it gets a looser bound than the exact per-user runs.
    const double gap_bound = r.kind == "classes" ? 1e-2 : 1e-3;
    if (obs::kEnabled &&
        !(std::isfinite(r.final_eps_nash) && r.final_eps_nash <= gap_bound)) {
      std::fprintf(stderr, "FAIL: %s final eps-Nash gap %.3e above %.0e\n",
                   r.kind.c_str(), r.final_eps_nash, gap_bound);
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("all telemetry gates passed\n");
  return 0;
}
