// des-replicate: one simmodel::replicate call (the paper's 5 replications)
// at one point of the Fig. 4 grid — the Table 1 system at utilization
// 10%..90% under the NASH, GOS, IOS and PS profiles.
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/cost.hpp"
#include "des/facility.hpp"
#include "des/simulator.hpp"
#include "instances.hpp"
#include "schemes/nash.hpp"
#include "schemes/registry.hpp"
#include "simmodel/replication.hpp"
#include "stats/distributions.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"

namespace nashlb::nashbench {
namespace {

/// Simulated seconds per replication and the warm-up cut. The warm-up is
/// ~2.6 relaxation times of the slowest queue at 90% load
/// (1/(mu(1-sqrt(rho))^2) ~ 38 s at mu = 10), so the residual start-up
/// bias stays well inside the check below at every grid point.
constexpr double kHorizon = 200.0;
constexpr double kWarmup = 100.0;
constexpr std::size_t kReplications = 5;
/// |simulated − exact| may be this many standard errors of the
/// replication mean. Student t with 4 degrees of freedom exceeds 40 with
/// probability 2.3e-6, so a correct simulator passes on any seed; a
/// biased one fails wherever its bias exceeds 40 standard errors (10-40%
/// of the mean response at 10% load, about 2x at 90%).
constexpr double kCheckStdErrors = 40.0;

/// Table 1: four speed classes, and the 10-user demand split of the
/// journal version of the paper.
core::Instance table1(double utilization) {
  core::Instance inst;
  const double rates[4] = {10.0, 20.0, 50.0, 100.0};
  const std::size_t counts[4] = {6, 5, 3, 2};
  for (std::size_t c = 0; c < 4; ++c) {
    inst.mu.insert(inst.mu.end(), counts[c], rates[c]);
  }
  double capacity = 0.0;
  for (double mu : inst.mu) capacity += mu;
  inst.phi = {0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04};
  for (double& phi : inst.phi) phi *= utilization * capacity;
  return inst;
}

struct Point {
  std::size_t util_index = 0;
  core::StrategyProfile profile;
  double exact = 0.0;     // overall response time, analytic
  double rounds = NAN;    // NASH points: the solve behind the profile
  double eps = NAN;
  std::uint64_t sim_seed = 0;
};

simmodel::ReplicationConfig replication_config(std::uint64_t seed) {
  simmodel::ReplicationConfig cfg;
  cfg.base.horizon = kHorizon;
  cfg.base.warmup = kWarmup;
  cfg.base.seed = seed;
  cfg.replications = kReplications;
  cfg.threads = 1;  // explicit: the default 0 would use every core
  return cfg;
}

/// simmodel::simulate's RNG stream layout (private to system_sim.cpp):
/// stream id kind*4096 + index, with one arrival and one dispatch stream
/// per user and one service stream per computer.
std::uint64_t stream_id(std::uint64_t kind, std::size_t index) {
  return kind * 4096 + static_cast<std::uint64_t>(index);
}

/// Pre-draws a stream's samples in batches inside one stats.sample span:
/// a single draw is shorter than a clock read. Each stream feeds exactly
/// one sampler, so drawing ahead leaves every sample path unchanged.
template <class T, class Sampler>
class Batched {
 public:
  Batched(const Sampler& sampler, stats::Xoshiro256 rng)
      : sampler_(&sampler), rng_(rng) {}
  T next(Recorder& rec, ReplayCounts& counts) {
    if (pos_ == buf_.size()) {
      buf_.resize(kBatch);
      Scoped span(rec, Layer::StatsSample);
      for (T& x : buf_) x = sampler_->sample(rng_);
      counts.samples_drawn += kBatch;
      pos_ = 0;
    }
    counts.samples_used += 1.0;
    return buf_[pos_++];
  }

 private:
  static constexpr std::size_t kBatch = 256;
  const Sampler* sampler_;
  stats::Xoshiro256 rng_;
  std::vector<T> buf_;
  std::size_t pos_ = 0;
};

struct RunSummary {
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  double mean = 0.0;
  double end_time = 0.0;
};

/// simmodel::simulate call by call, stepping the simulator one event at a
/// time under des.step spans.
RunSummary replay_simulate(const core::Instance& inst,
                           const core::StrategyProfile& profile,
                           const simmodel::SimConfig& config, Recorder& rec,
                           ReplayCounts& counts) {
  inst.validate();
  if (!profile.is_feasible(inst, 1e-7)) {
    throw std::invalid_argument("replay_simulate: profile is not feasible");
  }
  const std::size_t m = inst.num_users();
  const std::size_t n = inst.num_computers();
  des::Simulator sim;
  std::vector<std::unique_ptr<des::Facility>> computers;
  for (std::size_t i = 0; i < n; ++i) {
    computers.push_back(std::make_unique<des::Facility>(
        sim, "computer-" + std::to_string(i), 1, des::PreemptPolicy::None));
  }
  std::vector<stats::Exponential> interarrival;
  std::vector<stats::Exponential> service;
  std::vector<stats::Discrete> dispatch;
  std::vector<Batched<double, stats::Exponential>> arrival_draw;
  std::vector<Batched<std::size_t, stats::Discrete>> dispatch_draw;
  std::vector<Batched<double, stats::Exponential>> service_draw;
  {
    Scoped span(rec, Layer::StatsStreams);
    const stats::RngStreams streams(config.seed);
    interarrival.reserve(m);
    dispatch.reserve(m);
    service.reserve(n);
    for (std::size_t j = 0; j < m; ++j) {
      interarrival.emplace_back(inst.phi[j]);
      dispatch.emplace_back(profile.row(j));
    }
    for (std::size_t i = 0; i < n; ++i) service.emplace_back(inst.mu[i]);
    for (std::size_t j = 0; j < m; ++j) {
      arrival_draw.emplace_back(
          interarrival[j], streams.stream(config.replication, stream_id(0, j)));
      dispatch_draw.emplace_back(
          dispatch[j], streams.stream(config.replication, stream_id(1, j)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      service_draw.emplace_back(
          service[i], streams.stream(config.replication, stream_id(2, i)));
    }
  }
  RunSummary out;
  std::vector<stats::RunningStats> user_stats(m);
  std::vector<stats::RunningStats> computer_stats(n);
  stats::RunningStats overall;

  std::function<void(std::size_t)> spawn_next = [&](std::size_t user) {
    const double gap = arrival_draw[user].next(rec, counts);
    if (sim.now() + gap > config.horizon) return;
    Scoped schedule(rec, Layer::DesSchedule);
    sim.schedule(gap, [&, user](des::SimTime t_arrival) {
      Scoped callback(rec, Layer::SimmodelCallback);
      ++out.generated;
      const std::size_t target = dispatch_draw[user].next(rec, counts);
      const double service_time = service_draw[target].next(rec, counts);
      {
        Scoped facility(rec, Layer::DesFacility);
        computers[target]->request(
            service_time, [&, user, target, t_arrival](des::SimTime t_done) {
              Scoped done(rec, Layer::SimmodelCallback);
              ++out.completed;
              if (t_arrival >= config.warmup) {
                const double response = t_done - t_arrival;
                user_stats[user].add(response);
                computer_stats[target].add(response);
                overall.add(response);
              }
            });
      }
      spawn_next(user);
    });
  };
  for (std::size_t j = 0; j < m; ++j) spawn_next(j);
  while (sim.pending_events() > 0) {
    counts.pending_max =
        std::max(counts.pending_max, static_cast<double>(sim.pending_events()));
    Scoped step(rec, Layer::DesStep);
    sim.step();
  }
  out.mean = overall.mean();
  out.end_time = sim.now();
  counts.jobs += static_cast<double>(out.generated);
  return out;
}

class DesReplicate final : public Workload {
 public:
  const char* work_unit() const override { return "jobs/s"; }

  /// Solves the four schemes at the nine utilizations: the NASH profile
  /// through NashScheme::solve_with_trace, which also gives its rounds.
  void setup(std::uint64_t seed) override {
    points_.clear();
    insts_.clear();
    for (std::size_t u = 0; u < 9; ++u) {
      insts_.push_back(table1(0.1 * static_cast<double>(u + 1)));
    }
    for (std::size_t u = 0; u < insts_.size(); ++u) {
      const core::Instance& inst = insts_[u];
      for (const schemes::SchemePtr& scheme : schemes::paper_schemes()) {
        double rounds = NAN;
        const auto* nash =
            dynamic_cast<const schemes::NashScheme*>(scheme.get());
        core::StrategyProfile profile = [&] {
          if (nash == nullptr) return scheme->solve(inst);
          core::DynamicsResult res = nash->solve_with_trace(inst);
          if (!res.converged) throw std::runtime_error("NASH did not converge");
          rounds = static_cast<double>(res.iterations);
          return std::move(res.profile);
        }();
        Point p{u, std::move(profile)};
        p.exact = core::overall_response_time(inst, p.profile);
        p.rounds = rounds;
        if (nash != nullptr) p.eps = relative_eps_nash(inst, p.profile);
        points_.push_back(std::move(p));
      }
    }
    // Op order and simulation seeds come from the seed; the grid does not.
    SplitMix rng(sub_seed(seed, 3, 0));
    for (std::size_t k = points_.size(); k > 1; --k) {
      std::swap(points_[k - 1], points_[rng.next() % k]);
    }
    for (std::size_t k = 0; k < points_.size(); ++k) {
      points_[k].sim_seed = sub_seed(seed, 3, k + 1);
    }
  }
  std::size_t pool_size() const override { return points_.size(); }

  double run(std::size_t k) override {
    const Point& p = points_[k];
    last_.emplace(simmodel::replicate(insts_[p.util_index], p.profile,
                                      replication_config(p.sim_seed)));
    return static_cast<double>(last_->total_jobs);
  }

  /// Every replication drains (completed == generated), and the mean
  /// response agrees with the exact M/M/1 value within kCheckStdErrors
  /// standard errors estimated from the replications themselves.
  Verdict check(std::size_t k) const override {
    const Point& p = points_[k];
    bool ok = last_->runs.size() == kReplications;
    stats::RunningStats means;
    for (const simmodel::SimRunResult& run : last_->runs) {
      ok = ok && run.jobs_completed == run.jobs_generated;
      means.add(run.overall_mean_response);
    }
    ok = ok && std::fabs(means.mean() - p.exact) <=
                   kCheckStdErrors * means.std_error();
    return {ok, p.rounds, p.eps};
  }

  std::uint64_t answer_digest() const override {
    Digest d;
    for (const simmodel::SimRunResult& run : last_->runs) {
      d.add(run.jobs_generated);
      d.add(run.jobs_completed);
      d.add(run.overall_mean_response);
      d.add(run.end_time);
    }
    return d.value();
  }

  std::uint64_t input_digest() override {
    Digest d;
    for (const Point& p : points_) {
      d.add(static_cast<std::uint64_t>(p.util_index));
      d.add(p.sim_seed);
      for (std::size_t j = 0; j < p.profile.num_users(); ++j) {
        d.add(p.profile.row(j));
      }
    }
    return d.value();
  }

  bool replay(std::size_t k, Recorder& rec, ReplayCounts& counts) override {
    const Point& p = points_[k];
    const simmodel::ReplicationConfig cfg = replication_config(p.sim_seed);
    bool same = true;
    for (std::size_t r = 0; r < cfg.replications; ++r) {
      simmodel::SimConfig run_cfg = cfg.base;
      run_cfg.replication = r;
      const RunSummary s =
          replay_simulate(insts_[p.util_index], p.profile, run_cfg, rec,
                          counts);
      const simmodel::SimRunResult& ref = last_->runs[r];
      same = same && s.generated == ref.jobs_generated &&
             s.completed == ref.jobs_completed &&
             same_bits(s.mean, ref.overall_mean_response) &&
             same_bits(s.end_time, ref.end_time);
    }
    return same;
  }

  void corrupt() override { last_->runs[0].jobs_completed -= 1; }

 private:
  std::vector<core::Instance> insts_;
  std::vector<Point> points_;
  std::optional<simmodel::ReplicatedResult> last_;
};

}  // namespace

std::unique_ptr<Workload> make_des_replicate() {
  return std::make_unique<DesReplicate>();
}

}  // namespace nashlb::nashbench
