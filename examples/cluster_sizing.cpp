// Cluster sizing with selfish users: how much capacity do you need, and
// where, when you cannot dictate user behaviour?
//
//   ./cluster_sizing [--demand 300] [--target 0.05]
//
// Scenario (the intro's motivation: "when the demand for computing power
// increases the load balancing problem becomes important"): a site serves
// a fixed aggregate demand from 10 independent, selfish user groups. The
// operator can keep adding servers of one of two shapes — a big node
// (100 jobs/s) or a batch of four small nodes (4 x 25 jobs/s) — and wants
// the cheapest configuration whose *equilibrium* (not centrally planned!)
// overall response time meets a target. Because users are selfish, the
// operating point to evaluate is the Nash equilibrium, not GOS.
#include <cstdio>
#include <exception>
#include <vector>

#include "schemes/metrics.hpp"
#include "schemes/nash.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workload/configs.hpp"

namespace {

using namespace nashlb;

/// Equilibrium overall response time for a rate vector and demand, or a
/// negative value when the system is infeasible/overloaded.
double equilibrium_response(std::vector<double> mu, double demand) {
  double cap = 0.0;
  for (double m : mu) cap += m;
  if (demand >= 0.98 * cap) return -1.0;  // refuse near-saturation designs
  core::Instance inst;
  inst.mu = std::move(mu);
  const std::vector<double> q = workload::user_fractions(10);
  for (double f : q) inst.phi.push_back(f * demand);
  const schemes::NashScheme nash(core::Initialization::Proportional, 1e-6);
  return schemes::evaluate(inst, nash.solve(inst)).overall_response_time;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Args args(argc, argv, {"demand", "target"});
  const double demand = args.get_double("demand", 300.0);   // jobs/s
  const double target = args.get_double("target", 0.05);    // seconds

  std::printf("demand: %.0f jobs/s from 10 selfish user groups; "
              "target equilibrium response: %.3f s\n\n", demand, target);

  // Baseline: two big nodes (may be overloaded).
  util::Table table({"design", "capacity (jobs/s)",
                     "equilibrium E[response] (s)", "meets target?"});

  struct Design {
    std::string name;
    std::vector<double> mu;
  };
  std::vector<Design> designs;
  // Grow big nodes.
  for (int big = 2; big <= 6; ++big) {
    Design d;
    d.name = std::to_string(big) + " x big(100)";
    d.mu.assign(static_cast<std::size_t>(big), 100.0);
    designs.push_back(d);
  }
  // Mixed: 3 big + k batches of small.
  for (int batch = 1; batch <= 4; ++batch) {
    Design d;
    d.name = "3 x big(100) + " + std::to_string(4 * batch) + " x small(25)";
    d.mu.assign(3, 100.0);
    for (int i = 0; i < 4 * batch; ++i) d.mu.push_back(25.0);
    designs.push_back(d);
  }

  std::string first_ok;
  for (const Design& d : designs) {
    double cap = 0.0;
    for (double m : d.mu) cap += m;
    const double resp = equilibrium_response(d.mu, demand);
    const bool ok = resp > 0.0 && resp <= target;
    if (ok && first_ok.empty()) first_ok = d.name;
    table.add_row({d.name, util::format_fixed(cap, 0),
                   resp > 0.0 ? util::format_fixed(resp, 4) : "overloaded",
                   ok ? "yes" : "no"});
  }
  std::printf("%s\n", table.str().c_str());

  if (first_ok.empty()) {
    std::printf("no evaluated design meets the target — raise capacity or "
                "relax the target.\n");
  } else {
    std::printf("cheapest evaluated design meeting the target at the "
                "*selfish* operating point: %s\n", first_ok.c_str());
    std::printf("\nnote: a planner using GOS numbers would under-provision "
                "whenever the\nequilibrium is worse than the social "
                "optimum (see selfish_vs_social).\n");
  }
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "cluster_sizing: %s\n", ex.what());
  return 1;
}
