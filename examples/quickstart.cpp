// Quickstart: compute the Nash-equilibrium load balancing for a small
// heterogeneous cluster and inspect it.
//
//   ./quickstart [--utilization 0.6] [--eps 1e-6]
//
// Walks through the library's core loop:
//   1. describe the system (computers' rates, users' arrival rates);
//   2. run the NASH scheme (greedy best-reply dynamics, §3 of the paper);
//   3. verify the result is a Nash equilibrium;
//   4. read each user's strategy and expected response time;
//   5. sanity-check against the simple proportional allocation.
#include <cstdio>
#include <exception>

#include "core/equilibrium.hpp"
#include "schemes/metrics.hpp"
#include "schemes/nash.hpp"
#include "schemes/ps.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace nashlb;
  const util::Args args(argc, argv, {"utilization", "eps"});
  const double utilization = args.get_double("utilization", 0.6);
  const double eps = args.get_double("eps", 1e-6);

  // 1. The system: four computers (one fast, one medium, two slow)
  //    shared by three users of very different sizes.
  core::Instance inst;
  inst.mu = {100.0, 50.0, 10.0, 10.0};               // jobs/sec
  const double phi_total = utilization * 170.0;      // total demand
  inst.phi = {0.6 * phi_total, 0.3 * phi_total, 0.1 * phi_total};
  inst.validate();

  std::printf("system: 4 computers (100/50/10/10 jobs/s), 3 users, "
              "utilization %.0f%%\n\n", 100.0 * utilization);

  // 2. Solve for the Nash equilibrium.
  const schemes::NashScheme nash(core::Initialization::Proportional, eps);
  const core::DynamicsResult trace = nash.solve_with_trace(inst);
  std::printf("NASH converged in %zu best-reply rounds (eps = %g)\n\n",
              trace.iterations, eps);

  // 3. Verify: nobody can gain by deviating unilaterally.
  const double gain = core::max_best_reply_gain(inst, trace.profile);
  std::printf("equilibrium certificate: max unilateral gain = %.2e s %s\n\n",
              gain, gain < 1e-6 ? "(Nash equilibrium)" : "(NOT converged!)");

  // 4. Per-user strategies and response times.
  util::Table table({"user", "jobs/s", "-> c0", "-> c1", "-> c2", "-> c3",
                     "E[response] (s)"});
  const schemes::Metrics m = schemes::evaluate(inst, trace.profile);
  for (std::size_t j = 0; j < inst.num_users(); ++j) {
    table.add_row({std::to_string(j + 1),
                   util::format_fixed(inst.phi[j], 1),
                   util::format_fixed(trace.profile.at(j, 0), 3),
                   util::format_fixed(trace.profile.at(j, 1), 3),
                   util::format_fixed(trace.profile.at(j, 2), 3),
                   util::format_fixed(trace.profile.at(j, 3), 3),
                   util::format_fixed(m.user_response_times[j], 4)});
  }
  std::printf("%s\n", table.str().c_str());

  // 5. Compare with the naive proportional split.
  const schemes::Metrics ps =
      schemes::evaluate(inst, schemes::ProportionalScheme().solve(inst));
  std::printf("overall expected response time: NASH %.4f s vs "
              "proportional %.4f s (%.0f%% better)\n",
              m.overall_response_time, ps.overall_response_time,
              100.0 * (1.0 - m.overall_response_time /
                                 ps.overall_response_time));
  std::printf("fairness index: NASH %.3f, proportional %.3f\n",
              m.fairness, ps.fairness);
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "quickstart: %s\n", ex.what());
  return 1;
}
