// nashbench: the repository's benchmark. One run measures one workload —
// a single-threaded closed loop over a seeded pool of inputs, one op at a
// time — for about --seconds, checks every answer outside the timed
// region, and prints its metrics; the last line of stdout is one JSON
// object. --trace 1 replays each op through the layers' public calls
// under spans instead and prints the per-layer table. See README.md.
//
//   nashbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//   nashbench --selftest
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/manifest.hpp"

namespace nashlb::nashbench {
namespace {

/// Stop a run at this age even when one pass of its pool is not complete,
/// so that every run ends within three minutes.
constexpr double kHardStopSeconds = 150.0;
constexpr int kSetupRepeats = 5;

double now_s() { return 1e-9 * static_cast<double>(Recorder::now_ns()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = ".bench_build/out";
};

/// One named metric of the output.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;  // the JSON line's metrics
  std::vector<Metric> extra;    // printed and saved, not in the JSON line
  std::string work_unit;        // what work_per_s counts on this workload
};

// ---- timed run -------------------------------------------------------------

struct Timed {
  std::vector<std::vector<double>> op_s;  // per input, one per pass
  std::vector<double> setup_s;
  double work = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t passes = 0;
  std::vector<Verdict> verdicts;  // first-pass check of each input
};

/// Set-up repeated kSetupRepeats times (median reported), then whole
/// passes over the pool while the next pass is projected to end within
/// `seconds` — at least one, so every input is checked once. The first
/// pass checks each answer in full; later passes must reproduce its
/// digest bitwise. More passes only repeat the same inputs, so they
/// steady each input's time without changing what is sampled.
Timed measure(Workload& w, std::uint64_t seed, double seconds) {
  Timed t;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    w.setup(seed);
    t.setup_s.push_back(now_s() - t0);
  }
  const std::size_t pool = w.pool_size();
  t.verdicts.assign(pool, Verdict{false, NAN, NAN});
  t.op_s.assign(pool, {});
  std::vector<std::uint64_t> digests(pool, 0);
  const double start = now_s();
  for (;;) {
    const double pass_start = now_s();
    for (std::size_t k = 0; k < pool; ++k) {
      bool ok = false;
      try {
        w.prepare(k);
        const double t0 = now_s();
        const double units = w.run(k);
        const double dt = now_s() - t0;
        t.op_s[k].push_back(dt);
        t.work += units;
        if (t.passes == 0) {
          t.verdicts[k] = w.check(k);
          digests[k] = w.answer_digest();
          ok = t.verdicts[k].ok;
        } else {
          ok = t.verdicts[k].ok && w.answer_digest() == digests[k];
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "op %zu failed: %s\n", k, e.what());
      }
      ++t.attempted;
      if (!ok) ++t.failed;
      if (now_s() - start > kHardStopSeconds) return t;
    }
    ++t.passes;
    const double end = now_s();
    if (end - start + (end - pass_start) > seconds) return t;
  }
}

/// Peak resident memory from /proc/self/status. getrusage's ru_maxrss
/// survives exec, so it would report the launching process's peak when
/// that was larger.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

Report timed_report(Workload& w, const Options& o) {
  const Timed t = measure(w, o.seed, o.seconds);
  Report r;
  r.work_unit = w.work_unit();
  r.attempted = t.attempted;
  r.failed = t.failed;
  // Percentiles are over the pool's inputs, each timed by the median of
  // its passes: the sample count, and so the tail percentile, does not
  // depend on how many passes fit in the run.
  std::vector<double> per_input;
  double op_total = 0.0;
  for (const std::vector<double>& times : t.op_s) {
    for (double s : times) op_total += s;
    if (!times.empty()) per_input.push_back(median(times));
  }
  // A failed op makes the run incorrect but still leaves its numbers.
  r.correct = t.failed == 0;
  if (per_input.size() <= 10) {
    r.correct = false;
    return r;
  }
  const Tail tail = tail_percentile(per_input);
  double rounds = 0.0;
  double rounded = 0.0;
  double eps = 0.0;
  for (const Verdict& v : t.verdicts) {
    if (std::isnan(v.rounds)) continue;
    rounds += v.rounds;
    rounded += 1.0;
    eps = std::max(eps, v.eps);
  }
  const double failed_frac =
      static_cast<double>(t.failed) / static_cast<double>(t.attempted);
  r.metrics = {
      {"setup_s", median(t.setup_s), "s"},
      {"op_p50_s", median(per_input), "s"},
      {"op_tail_s", tail.value, "s"},
      {"work_per_s", t.work / op_total, "work/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"ok_frac", 1.0 - failed_frac, "fraction"},
      {"rounds_mean", rounded > 0.0 ? rounds / rounded : 0.0, "rounds"},
      {"eps_nash_max", eps, "relative"},
  };
  r.extra = {
      {"failed_frac", failed_frac, "fraction"},
      {"op_samples", static_cast<double>(per_input.size()), "count"},
      {"ops", static_cast<double>(t.attempted), "count"},
      {"op_tail_percentile", static_cast<double>(tail.percentile), "pct"},
      {"passes", static_cast<double>(t.passes), "count"},
      {"pool_size", static_cast<double>(w.pool_size()), "count"},
      {"op_total_s", op_total, "s"},
  };
  return r;
}

// ---- traced run ------------------------------------------------------------

Report traced_report(Workload& w, const Options& o) {
  Recorder rec;
  rec.calibrate();
  w.setup(o.seed);
  LayerTotals totals;
  ReplayCounts counts;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  Report r;
  const std::size_t pool = w.pool_size();
  const double start = now_s();
  std::uint32_t op = 0;
  for (bool more = true; more;) {
    const double pass_start = now_s();
    for (std::size_t k = 0; k < pool && more; ++k, ++op) {
      bool same = false;
      try {
        w.prepare(k);
        const double t0 = now_s();
        static_cast<void>(w.run(k));
        const double t1 = now_s();
        rec.start_op(op);
        {
          Scoped root(rec, Layer::Op);
          same = w.replay(k, rec, counts);
        }
        traced_s += now_s() - t1;
        untraced_s += t1 - t0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "traced op %zu failed: %s\n", k, e.what());
      }
      rec.finish_op(totals);
      ++r.attempted;
      if (!same) ++r.failed;
      more = now_s() - start <= kHardStopSeconds;
    }
    const double end = now_s();
    more = more && end - start + (end - pass_start) <= o.seconds;
  }
  std::filesystem::create_directories(o.out_dir);
  const std::string spans_path = o.out_dir + "/spans-" + o.workload + "-" +
                                 std::to_string(o.seed) + ".csv";
  if (!rec.write_csv(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
  }
  // The replay gate: a replay that does not reproduce its op bitwise
  // measures some other computation, so its numbers are not reported.
  r.correct = r.failed == 0 && r.attempted > 0;
  if (!r.correct) return r;

  const double ops = static_cast<double>(r.attempted);
  const auto calls = [&](Layer l) {
    return totals.calls[static_cast<std::size_t>(l)] / ops;
  };
  const auto self = [&](Layer l) {
    return totals.self_s[static_cast<std::size_t>(l)] / ops;
  };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double waterfill_calls =
      totals.calls[static_cast<std::size_t>(Layer::CoreWaterfill)];
  const double draw_share = ratio(counts.samples_used, counts.samples_drawn);
  r.metrics = {
      {"core.waterfill.calls", calls(Layer::CoreWaterfill), "count"},
      {"core.waterfill.self_s", self(Layer::CoreWaterfill), "s"},
      {"core.waterfill.active_frac",
       ratio(counts.waterfill_support, waterfill_calls), "fraction"},
      {"core.available_rates.calls", calls(Layer::CoreAvailableRates), "count"},
      {"core.available_rates.self_s", self(Layer::CoreAvailableRates), "s"},
      {"core.commit_row.calls", calls(Layer::CoreCommitRow), "count"},
      {"core.commit_row.self_s", self(Layer::CoreCommitRow), "s"},
      {"core.response_time.calls", calls(Layer::CoreResponseTime), "count"},
      {"core.response_time.self_s", self(Layer::CoreResponseTime), "s"},
      {"core.rebuild.calls", calls(Layer::CoreRebuild), "count"},
      {"core.rebuild.self_s", self(Layer::CoreRebuild), "s"},
      {"core.init.self_s", self(Layer::CoreInit), "s"},
      {"core.idle_move_frac", ratio(counts.idle_moves, counts.moves),
       "fraction"},
      {"classes.partition.self_s", self(Layer::ClassesPartition), "s"},
      {"classes.aggregate.self_s", self(Layer::ClassesAggregate), "s"},
      {"classes.reply.calls", calls(Layer::ClassesReply), "count"},
      {"classes.reply.self_s", self(Layer::ClassesReply), "s"},
      {"classes.certify.self_s", self(Layer::ClassesCertify), "s"},
      {"classes.count", counts.classes / ops, "count"},
      {"des.schedule.calls", calls(Layer::DesSchedule), "count"},
      {"des.schedule.self_s", self(Layer::DesSchedule), "s"},
      {"des.step.calls", calls(Layer::DesStep), "count"},
      {"des.step.self_s", self(Layer::DesStep), "s"},
      {"des.facility.calls", calls(Layer::DesFacility), "count"},
      {"des.facility.self_s", self(Layer::DesFacility), "s"},
      {"des.pending_max", counts.pending_max, "count"},
      {"des.events_per_job",
       ratio(totals.calls[static_cast<std::size_t>(Layer::DesStep)],
             counts.jobs),
       "events/job"},
      {"stats.sample.calls", counts.samples_used / ops, "count"},
      {"stats.sample.self_s", self(Layer::StatsSample) * draw_share, "s"},
      {"stats.streams.self_s", self(Layer::StatsStreams), "s"},
      {"simmodel.callback.self_s", self(Layer::SimmodelCallback), "s"},
      {"distributed.protocol.self_s", self(Layer::DistributedProtocol), "s"},
      {"distributed.messages", counts.messages / ops, "count"},
      {"trace.residual_s", self(Layer::Op), "s"},
      {"trace.overhead_frac", ratio(traced_s - untraced_s, untraced_s),
       "fraction"},
  };
  double layer_sum = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) layer_sum += totals.self_s[l];
  r.extra = {
      {"op_untraced_s", untraced_s / ops, "s"},
      {"op_layer_sum_s", layer_sum / ops, "s"},
      {"span_inside_s", rec.inside_s(), "s"},
      {"span_cost_s", rec.per_span_s(), "s"},
      {"spans_per_op", [&] {
         double n = 0.0;
         for (double c : totals.calls) n += c;
         return n / ops;
       }(), "count"},
  };
  return r;
}

// ---- output ----------------------------------------------------------------

std::string provenance_json(const Options& o) {
  obs::RunManifest m = obs::RunManifest::collect();
  m.set("build_type", std::string(NASHBENCH_BUILD_TYPE));
  m.set("workload", o.workload);
  m.set("seed", static_cast<std::int64_t>(o.seed));
  m.set("seconds", o.seconds);
  m.set("trace", static_cast<std::int64_t>(o.trace ? 1 : 0));
  m.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  return m.to_json();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string result_json(const Report& r) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_json(r.metrics) + "}";
}

void print_table(const Options& o, const Report& r) {
  std::printf("nashbench %s seed=%llu seconds=%g trace=%d%s%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              r.work_unit.empty() ? "" : " work/s=", r.work_unit.c_str());
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-30s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

// ---- self-tests ------------------------------------------------------------

/// A twelve-input workload whose check fails on input 2: the run must
/// count exactly that failure and report it.
class InjectedFailure final : public Workload {
 public:
  const char* work_unit() const override { return "ops/s"; }
  void setup(std::uint64_t) override {}
  std::size_t pool_size() const override { return 12; }
  double run(std::size_t k) override {
    last_ = k;
    return 1.0;
  }
  Verdict check(std::size_t k) const override { return {k != 2, 1.0, 0.0}; }
  std::uint64_t answer_digest() const override { return last_; }
  std::uint64_t input_digest() override { return 0; }
  bool replay(std::size_t, Recorder&, ReplayCounts&) override { return true; }
  void corrupt() override {}

 private:
  std::size_t last_ = 0;
};

int selftest_counting() {
  InjectedFailure w;
  Options o;
  o.seconds = 0.0;  // one pass
  const Report r = timed_report(w, o);
  double failed_frac = -1.0;
  for (const Metric& m : r.extra) {
    if (m.name == "failed_frac") failed_frac = m.value;
  }
  if (r.attempted == 12 && r.failed == 1 && !r.correct &&
      failed_frac == 1.0 / 12.0) {
    return 0;
  }
  std::fprintf(stderr,
               "selftest: injected failure counted %zu of %zu, failed_frac "
               "%g (want 1 of 12)\n",
               r.failed, r.attempted, failed_frac);
  return 1;
}

/// Same seed, same inputs bitwise; another seed, other inputs.
int selftest_seed(Workload& w, std::string_view name) {
  w.setup(7);
  const std::uint64_t a = w.input_digest();
  w.setup(7);
  const std::uint64_t b = w.input_digest();
  w.setup(8);
  const std::uint64_t c = w.input_digest();
  if (a == b && a != c) return 0;
  std::fprintf(stderr, "selftest: %.*s inputs are not a function of the seed\n",
               static_cast<int>(name.size()), name.data());
  return 1;
}

/// The real check of each workload accepts a real answer and rejects a
/// damaged one.
int selftest_checks(Workload& w, std::string_view name) {
  w.setup(7);
  w.prepare(0);
  static_cast<void>(w.run(0));
  const bool accepts = w.check(0).ok;
  w.corrupt();
  const bool rejects = !w.check(0).ok;
  if (accepts && rejects) return 0;
  std::fprintf(stderr, "selftest: %.*s check %s\n",
               static_cast<int>(name.size()), name.data(),
               accepts ? "accepts a damaged answer" : "rejects a good answer");
  return 1;
}

// ---- main ------------------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (arg == "--out") {
      o.out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return o.selftest || !o.workload.empty();
}

/// Timings from a contract-checking, sanitized or unoptimized build
/// measure the instrumentation, not the program.
const char* unfit_build() {
  const obs::RunManifest m = obs::RunManifest::collect();
  if (m.check_enabled) return "NASHLB_CHECK=ON build";
  if (m.sanitize != "OFF") return "sanitizer build";
#ifndef __OPTIMIZE__
  return "unoptimized build";
#else
  return nullptr;
#endif
}

int main_impl(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: nashbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] | --selftest\n");
    return 2;
  }
  int failures = selftest_arithmetic() + selftest_counting();
  if (o.selftest) {
    for (std::string_view name : kWorkloads) {
      auto w = make_workload(name);
      failures += selftest_seed(*w, name) + selftest_checks(*w, name);
    }
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  auto w = make_workload(o.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "refusing to report timings from a %s\n", why);
    return 2;
  }
  failures += selftest_seed(*w, o.workload);
  if (failures != 0) {
    std::fprintf(stderr, "self-test failed; no result\n");
    return 1;
  }
  const Report r = o.trace ? traced_report(*w, o) : timed_report(*w, o);
  print_table(o, r);
  const std::string provenance = provenance_json(o);
  std::printf("provenance: %s\n", provenance.c_str());
  std::filesystem::create_directories(o.out_dir);
  const std::string path = o.out_dir + "/result-" + o.workload + "-" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::vector<Metric> all = r.metrics;
    all.insert(all.end(), r.extra.begin(), r.extra.end());
    std::fprintf(f,
                 "{\"provenance\": %s, \"work_unit\": \"%s\", \"result\": %s, "
                 "\"all\": %s}\n",
                 provenance.c_str(), r.work_unit.c_str(),
                 result_json(r).c_str(), metrics_json(all).c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace nashlb::nashbench

int main(int argc, char** argv) {
  try {
    return nashlb::nashbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nashbench: %s\n", e.what());
    return 1;
  }
}
