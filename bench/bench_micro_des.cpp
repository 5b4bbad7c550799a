// A5b — timing micro-benchmarks for the discrete-event substrate
// (google-benchmark): event calendar throughput, facility service cycle,
// RNG/distribution sampling, and the end-to-end M/M/1 farm simulation
// rate in jobs per second of wall time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>

#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "simmodel/system_sim.hpp"
#include "stats/distributions.hpp"
#include "workload/configs.hpp"

namespace {

using namespace nashlb;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  stats::Xoshiro256 rng(1);
  for (auto _ : state) {
    des::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.push(rng.next_double(), [](des::SimTime) {});
    }
    while (!q.empty()) {
      des::Event ev = q.pop();
      benchmark::DoNotOptimize(ev.time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(batch) *
                          state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    std::size_t count = 0;
    std::function<void(des::SimTime)> tick = [&](des::SimTime) {
      if (++count < 10000) sim.schedule(1.0, tick);
    };
    sim.schedule(1.0, tick);
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_FacilityServiceCycle(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    des::Facility f(sim, "cpu");
    for (int i = 0; i < 1000; ++i) {
      f.request(1.0, [](des::SimTime) {});
    }
    sim.run();
    benchmark::DoNotOptimize(f.completed());
  }
  state.SetItemsProcessed(1000 * state.iterations());
}
BENCHMARK(BM_FacilityServiceCycle);

void BM_ExponentialSampling(benchmark::State& state) {
  stats::Xoshiro256 rng(7);
  const stats::Exponential d(3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.sample(rng));
  }
}
BENCHMARK(BM_ExponentialSampling);

void BM_AliasTableSampling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> w(n);
  stats::Xoshiro256 seed_rng(8);
  for (double& x : w) x = seed_rng.next_double_open();
  const stats::Discrete d(w);
  stats::Xoshiro256 rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.sample(rng));
  }
}
BENCHMARK(BM_AliasTableSampling)->Arg(16)->Arg(4096);

void BM_MM1FarmSimulation(benchmark::State& state) {
  // End-to-end: the paper's Table 1 system simulated for `horizon`
  // seconds; reports simulated jobs per wall-clock second.
  const core::Instance inst = workload::table1_instance(0.6);
  const core::StrategyProfile profile =
      core::StrategyProfile::proportional(inst);
  simmodel::SimConfig cfg;
  cfg.horizon = 50.0;
  cfg.warmup = 0.0;
  std::uint64_t jobs = 0;
  for (auto _ : state) {
    cfg.replication = static_cast<std::uint64_t>(state.iterations());
    const simmodel::SimRunResult r = simmodel::simulate(inst, profile, cfg);
    jobs += r.jobs_generated;
    benchmark::DoNotOptimize(r.overall_mean_response);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs));
  state.counters["jobs_per_run"] =
      static_cast<double>(jobs) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_MM1FarmSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
