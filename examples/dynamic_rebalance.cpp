// Dynamic re-balancing: the deployment mode of §3 — "the execution of
// this algorithm is initiated periodically or when the system parameters
// are changed".
//
//   ./dynamic_rebalance [--epochs 8] [--drift 0.35]
//
// A day in the life of a 16-computer system: every epoch the users'
// arrival rates drift (diurnal load swing). At each epoch boundary the
// users re-run the distributed NASH ring protocol starting from the
// *previous* equilibrium — which, like NASH_P's warm start, re-converges
// in a handful of rounds. The example reports per-epoch re-convergence
// cost and the response-time penalty of NOT re-balancing (keeping the
// stale strategy).
#include <cmath>
#include <cstdio>
#include <exception>

#include "core/cost.hpp"
#include "core/dynamics.hpp"
#include "schemes/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/configs.hpp"

int main(int argc, char** argv) try {
  using namespace nashlb;
  const util::Args args(argc, argv, {"epochs", "drift"});
  const long epochs = args.get_int("epochs", 8);
  const double drift = args.get_double("drift", 0.35);

  const std::vector<double> mu = workload::table1_rates();
  const std::vector<double> q = workload::default_user_fractions();

  std::printf("16-computer system; 10 users; utilization swings "
              "0.6 +/- %.2f over %ld epochs\n\n", 0.25 * drift * 2, epochs);

  util::Table table({"epoch", "utilization", "rounds to re-converge",
                     "E[resp] rebalanced (s)", "E[resp] stale (s)",
                     "stale penalty"});

  core::Instance inst = workload::table1_instance(0.6);
  core::DynamicsOptions opts;
  opts.tolerance = 1e-6;
  core::DynamicsResult eq = core::best_reply_dynamics(inst, opts);
  core::StrategyProfile stale = eq.profile;  // never re-balanced again

  for (long e = 1; e <= epochs; ++e) {
    // Diurnal swing of total demand around 60% utilization.
    const double swing =
        0.6 + 0.25 * drift *
                  std::sin(2.0 * 3.14159265358979 * static_cast<double>(e) /
                           static_cast<double>(epochs));
    const core::Instance next = workload::make_instance(mu, q, swing);

    // Warm re-start from the previous equilibrium (what a real system
    // does when "the system parameters are changed").
    const core::DynamicsResult re =
        core::best_reply_dynamics_from(next, eq.profile, opts);

    const double d_re = core::overall_response_time(next, re.profile);
    const double d_stale = core::overall_response_time(next, stale);
    const std::string penalty =
        std::isfinite(d_stale)
            ? util::format_percent(d_stale / d_re - 1.0, 1)
            : "overloaded!";
    table.add_row({std::to_string(e), util::format_percent(swing, 1),
                   std::to_string(re.iterations),
                   util::format_fixed(d_re, 4),
                   std::isfinite(d_stale) ? util::format_fixed(d_stale, 4)
                                          : "inf",
                   penalty});
    eq = re;
    inst = next;
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "warm re-starts re-converge in a handful of rounds (the previous\n"
      "equilibrium is an excellent initialization), while a stale strategy\n"
      "pays a growing penalty as the load drifts away from its epoch.\n");
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "dynamic_rebalance: %s\n", ex.what());
  return 1;
}
