// Heap allocations of the simulators' steady-state job path: once the
// calendar and the waiting buffers (the server bank's rings) reach their
// peak sizes, a job costs no allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adaptive/online.hpp"
#include "core/types.hpp"
#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "simmodel/system_sim.hpp"
#include "stats/distributions.hpp"
#include "stats/rng.hpp"
#include "support/alloc_counter.hpp"
#include "workload/configs.hpp"

namespace nashlb {
namespace des {
namespace {

TEST(Simulator, SteadyStateJobsDoNotAllocate) {
  // An M/M/1 queue at 50% load through Simulator + Facility, driven by
  // closures that fit EventFn's inline storage.
  struct MM1 {
    Simulator sim;
    Facility cpu{sim, "cpu"};
    stats::Xoshiro256 arrival_rng{11};
    stats::Xoshiro256 service_rng{12};
    stats::Exponential interarrival{5.0};
    stats::Exponential service{10.0};
    std::uint64_t completed = 0;

    void arrive() {
      auto done = [this](SimTime) { ++completed; };
      auto next = [this](SimTime) { arrive(); };
      static_assert(EventFn::fits_inline<decltype(done)>);
      static_assert(EventFn::fits_inline<decltype(next)>);
      cpu.request(service.sample(service_rng), done);
      sim.schedule(interarrival.sample(arrival_rng), next);
    }
  };
  MM1 q;
  q.arrive();
  // Warm-up: the calendar, its slot pool and the waiting buffer grow to
  // the run's peak sizes.
  while (q.completed < 10000) q.sim.step();
  EXPECT_EQ(test_support::allocations_in([&] {
              while (q.completed < 20000) q.sim.step();
            }),
            0u);
}

}  // namespace
}  // namespace des

namespace simmodel {
namespace {

TEST(SystemSim, SteadyStateJobsDoNotAllocate) {
  // Table 1 at 30% load: a run twice as long adds only jobs, so it must
  // not add allocations. The server bank's rings start at 16 pending jobs
  // each and the histograms allocate their buckets at the first record.
  const core::Instance inst = workload::table1_instance(0.3);
  const core::StrategyProfile prop =
      core::StrategyProfile::proportional(inst);
  const auto run = [&](double horizon, std::uint64_t& jobs) {
    SimConfig cfg;
    cfg.horizon = horizon;
    cfg.warmup = 100.0;
    return test_support::allocations_in(
        [&] { jobs = simulate(inst, prop, cfg).jobs_completed; });
  };
  std::uint64_t short_jobs = 0;
  std::uint64_t long_jobs = 0;
  const std::size_t short_allocs = run(200.0, short_jobs);
  const std::size_t long_allocs = run(400.0, long_jobs);
  EXPECT_GT(long_jobs, short_jobs + 20000);
  EXPECT_EQ(long_allocs, short_allocs);
}

}  // namespace
}  // namespace simmodel

namespace adaptive {
namespace {

TEST(Online, SteadyStateJobsDoNotAllocate) {
  // Table 1 at 30% load and one report window: a run twice as long adds
  // only jobs, so it must not add allocations. The calendar and the
  // waiting buffers reach their peak sizes early. The adaptive run puts
  // its first controller run past the horizon; the static run keeps the
  // default 5 s period, which must schedule no controller and copy no
  // meters at all.
  const core::Instance inst = workload::table1_instance(0.3, 4);
  const core::StrategyProfile prop =
      core::StrategyProfile::proportional(inst);
  RateSchedule schedule;
  schedule.start_times = {0.0};
  schedule.phi = {inst.phi};
  for (const bool adapt : {true, false}) {
    const auto run = [&](double horizon, std::uint64_t& jobs) {
      OnlineOptions opts;
      opts.horizon = horizon;
      if (adapt) opts.update_period = 4.0 * horizon;
      opts.report_period = 4.0 * horizon;
      opts.adapt = adapt;
      return test_support::allocations_in([&] {
        jobs = simulate_online(inst.mu, schedule, prop, opts).jobs_completed;
      });
    };
    std::uint64_t short_jobs = 0;
    std::uint64_t long_jobs = 0;
    const std::size_t short_allocs = run(200.0, short_jobs);
    const std::size_t long_allocs = run(400.0, long_jobs);
    EXPECT_GT(long_jobs, short_jobs + 20000) << "adapt=" << adapt;
    EXPECT_EQ(long_allocs, short_allocs) << "adapt=" << adapt;
  }
}

}  // namespace
}  // namespace adaptive
}  // namespace nashlb
