// solve-peruser and solve-classes: the NASH solve at the ROADMAP's two
// headline sizes, 4096 users x 64 computers per user and 2^20 users x 64
// computers over quantized demand classes.
#include <cmath>
#include <optional>

#include "core/user_classes.hpp"
#include "instances.hpp"

namespace nashlb::nashbench {
namespace {

constexpr std::size_t kComputers = 64;

// ---- solve-peruser ---------------------------------------------------------

constexpr std::size_t kPerUserUsers = 4096;
constexpr std::size_t kPerUserPool = 256;

class SolvePerUser final : public Workload {
 public:
  const char* work_unit() const override { return "moves/s"; }

  void setup(std::uint64_t seed) override {
    SplitMix rng(sub_seed(seed, 1, 0));
    const std::vector<double> util = stratified(rng, kPerUserPool, 0.3, 0.9);
    pool_.resize(util.size());
    for (std::size_t k = 0; k < util.size(); ++k) {
      cluster_instance(rng, kPerUserUsers, kComputers, util[k], pool_[k]);
    }
  }
  std::size_t pool_size() const override { return pool_.size(); }

  double run(std::size_t k) override {
    last_.emplace(core::best_reply_dynamics(pool_[k], options()));
    return static_cast<double>(last_->iterations * kPerUserUsers);
  }

  Verdict check(std::size_t k) const override {
    const core::Instance& inst = pool_[k];
    const bool ok = last_->converged && last_->profile.is_feasible(inst);
    const double eps = relative_eps_nash(inst, last_->profile);
    return {ok && eps <= kPerUserEpsBound,
            static_cast<double>(last_->iterations), eps};
  }

  std::uint64_t answer_digest() const override {
    Digest d;
    d.add(static_cast<std::uint64_t>(last_->iterations));
    d.add(static_cast<std::uint64_t>(last_->converged));
    for (std::size_t j = 0; j < kPerUserUsers; ++j) {
      d.add(last_->profile.row(j));
    }
    d.add(last_->norm_history);
    return d.value();
  }

  std::uint64_t input_digest() override {
    Digest d;
    for (const core::Instance& inst : pool_) {
      d.add(inst.mu);
      d.add(inst.phi);
    }
    return d.value();
  }

  bool replay(std::size_t k, Recorder& rec, ReplayCounts& counts) override;

  void corrupt() override {
    std::vector<double> row(last_->profile.row(0).begin(),
                            last_->profile.row(0).end());
    row[0] += 0.5;  // leaves the simplex
    last_->profile.set_row(0, row);
  }

 private:
  static core::DynamicsOptions options() {
    return dynamics_options(kPerUserUsers);
  }

  std::vector<core::Instance> pool_;
  std::optional<core::DynamicsResult> last_;
};

/// best_reply_dynamics (NASH_P, round robin, per-user) call by call:
/// best_reply_into is split into its available-rates and waterfill calls.
bool SolvePerUser::replay(std::size_t k, Recorder& rec,
                          ReplayCounts& counts) {
  const core::Instance& inst = pool_[k];
  const core::DynamicsOptions opts = options();
  const std::size_t m = inst.num_users();
  const double idle = opts.tolerance / static_cast<double>(m);

  const core::StrategyProfile start = [&] {
    Scoped span(rec, Layer::CoreInit);
    inst.validate();
    return core::StrategyProfile::proportional(inst);
  }();
  std::vector<double> last;
  std::optional<core::StrategyProfile> s;
  std::optional<core::LoadState> state;
  core::BestReplyWorkspace ws;
  {
    Scoped span(rec, Layer::CoreInit);
    inst.validate();
    last = core::user_response_times(inst, start);
    for (double& d : last) {
      if (!std::isfinite(d)) d = 0.0;
    }
    s.emplace(start);
    state.emplace(inst, *s);
    ws.resize(inst.num_computers());
  }
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<double> norms;
  for (std::size_t round = 1; round <= opts.max_iterations; ++round) {
    if (round > 1) {
      Scoped span(rec, Layer::CoreRebuild);
      state->rebuild(*s);
    }
    double norm = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      norm += traced_move(rec, counts, inst, *state, *s, ws, j, last, idle,
                          [](std::span<double>) {});
    }
    iterations = round;
    norms.push_back(norm);
    if (norm <= opts.tolerance) {
      converged = true;
      break;
    }
  }
  std::vector<double> times;
  {
    Scoped span(rec, Layer::CoreInit);
    times = core::user_response_times(inst, *s);
  }
  return iterations == last_->iterations && converged == last_->converged &&
         same_profile(*s, last_->profile) &&
         same_bits(norms, last_->norm_history) &&
         same_bits(times, last_->user_times);
}

// ---- solve-classes ---------------------------------------------------------

constexpr std::size_t kClassUsers = std::size_t{1} << 20;
constexpr std::size_t kClassPool = 32;
constexpr double kEpsPhi = 1e-3;
constexpr std::size_t kMaxClasses = 512;
/// The class-mode eps-Nash gate of docs/SCALING.md.
constexpr double kClassEpsBound = 1e-3;

class SolveClasses final : public Workload {
 public:
  const char* work_unit() const override { return "users/s"; }

  /// The pool is a list of (utilization, seed) pairs; each 2^20-user
  /// instance is generated when its op comes up. Setup generates one
  /// pass of them, so that setup_s counts that cost too.
  void setup(std::uint64_t seed) override {
    SplitMix rng(sub_seed(seed, 2, 0));
    util_ = stratified(rng, kClassPool, 0.3, 0.9);
    seeds_.clear();
    for (std::size_t k = 0; k < kClassPool; ++k) {
      seeds_.push_back(sub_seed(seed, 2, k + 1));
    }
    for (std::size_t k = 0; k < kClassPool; ++k) prepare(k);
  }
  std::size_t pool_size() const override { return util_.size(); }

  /// Regenerates input k into the one instance the workload holds.
  void prepare(std::size_t k) override {
    cert_.reset();
    last_.reset();
    part_.reset();
    SplitMix rng(seeds_[k]);
    cluster_instance(rng, kClassUsers, kComputers, util_[k], inst_);
  }

  double run(std::size_t) override {
    part_.emplace(
        core::UserClassPartition::quantized(inst_, kEpsPhi, kMaxClasses));
    core::DynamicsOptions opts = dynamics_options(kClassUsers);
    opts.classes = &*part_;
    last_.emplace(core::best_reply_dynamics(inst_, opts));
    cert_.emplace(core::certify_eps_nash(inst_, *part_, last_->profile));
    return static_cast<double>(kClassUsers);
  }

  Verdict check(std::size_t) const override {
    const bool ok = last_->converged &&
                    cert_->analytic_bound <= kClassEpsBound &&
                    cert_->eps_nash <= cert_->analytic_bound;
    return {ok, static_cast<double>(last_->iterations), cert_->eps_nash};
  }

  std::uint64_t answer_digest() const override {
    Digest d;
    d.add(static_cast<std::uint64_t>(last_->iterations));
    d.add(static_cast<std::uint64_t>(last_->converged));
    d.add(static_cast<std::uint64_t>(part_->num_classes()));
    for (std::size_t k = 0; k < part_->num_classes(); ++k) {
      d.add(last_->profile.row(k));
    }
    d.add(last_->norm_history);
    d.add(cert_->eps_nash);
    d.add(cert_->analytic_bound);
    return d.value();
  }

  /// Every input is a function of its (utilization, seed) pair, so the
  /// pairs plus one generated instance stand for the pool.
  std::uint64_t input_digest() override {
    Digest d;
    d.add(util_);
    for (std::uint64_t s : seeds_) d.add(s);
    prepare(0);
    d.add(inst_.mu);
    d.add(inst_.phi);
    return d.value();
  }

  bool replay(std::size_t k, Recorder& rec, ReplayCounts& counts) override;

  void corrupt() override { cert_->analytic_bound = 2.0 * kClassEpsBound; }

 private:
  std::vector<double> util_;
  std::vector<std::uint64_t> seeds_;
  core::Instance inst_;
  std::optional<core::UserClassPartition> part_;
  std::optional<core::DynamicsResult> last_;
  std::optional<core::EpsNashCertificate> cert_;
};

/// The class op call by call: the partition, best_reply_dynamics with
/// `classes` set (aggregation, then rounds of class replies over the
/// weighted classes), and the certificate.
bool SolveClasses::replay(std::size_t, Recorder& rec, ReplayCounts& counts) {
  const core::Instance& inst = inst_;
  const core::DynamicsOptions opts = dynamics_options(kClassUsers);
  const core::UserClassPartition part = [&] {
    Scoped span(rec, Layer::ClassesPartition);
    return core::UserClassPartition::quantized(inst, kEpsPhi, kMaxClasses);
  }();
  counts.classes += static_cast<double>(part.num_classes());
  {
    Scoped span(rec, Layer::CoreInit);
    inst.validate();
  }
  const core::Instance agg = [&] {
    Scoped span(rec, Layer::ClassesAggregate);
    part.expect_matches(inst);
    core::Instance a = part.aggregate_instance(inst);
    a.validate();
    return a;
  }();
  const std::span<const double> weight = part.member_counts();
  std::vector<double> last;
  std::optional<core::StrategyProfile> s;
  std::optional<core::LoadState> state;
  core::BestReplyWorkspace ws;
  {
    Scoped span(rec, Layer::CoreInit);
    s.emplace(core::StrategyProfile::proportional(agg));
    last = core::user_response_times(agg, *s);
    for (double& d : last) {
      if (!std::isfinite(d)) d = 0.0;
    }
    state.emplace(agg, *s);
    ws.resize(agg.num_computers());
  }
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<double> norms;
  for (std::size_t round = 1; round <= opts.max_iterations; ++round) {
    if (round > 1) {
      Scoped span(rec, Layer::CoreRebuild);
      state->rebuild(*s);
    }
    double norm = 0.0;
    for (std::size_t c = 0; c < agg.num_users(); ++c) {
      std::span<const double> reply;
      {
        Scoped span(rec, Layer::ClassesReply);
        reply = core::class_reply_into(agg, *s, *state, c, part, ws);
      }
      {
        Scoped span(rec, Layer::CoreCommitRow);
        state->commit_row(*s, c, reply);
      }
      double d = 0.0;
      {
        Scoped span(rec, Layer::CoreResponseTime);
        d = state->user_response_time(*s, c);
      }
      norm += weight[c] * std::fabs(d - last[c]);
      last[c] = d;
    }
    iterations = round;
    norms.push_back(norm);
    if (norm <= opts.tolerance) {
      converged = true;
      break;
    }
  }
  std::vector<double> times;
  {
    Scoped span(rec, Layer::CoreInit);
    times = core::user_response_times(agg, *s);
  }
  const core::EpsNashCertificate cert = [&] {
    Scoped span(rec, Layer::ClassesCertify);
    return core::certify_eps_nash(inst, part, *s);
  }();
  return part.num_classes() == part_->num_classes() &&
         iterations == last_->iterations && converged == last_->converged &&
         same_profile(*s, last_->profile) &&
         same_bits(norms, last_->norm_history) &&
         same_bits(times, last_->user_times) &&
         same_bits(cert.eps_nash, cert_->eps_nash) &&
         same_bits(cert.analytic_bound, cert_->analytic_bound);
}

}  // namespace

std::unique_ptr<Workload> make_solve_peruser() {
  return std::make_unique<SolvePerUser>();
}
std::unique_ptr<Workload> make_solve_classes() {
  return std::make_unique<SolveClasses>();
}

}  // namespace nashlb::nashbench
