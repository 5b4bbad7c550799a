// Lightweight runtime metrics: counters, duration timers, and a named
// registry, with a compile-time off switch.
//
// The observability layer exists so the solvers (core, distributed) and
// the simulation substrate (des, simmodel) can expose what they are doing
// — iteration counts, event throughput, busy time — without ad-hoc printf
// instrumentation in every bench. Design constraints:
//
//   * near-zero cost when enabled: a counter increment is one add, a
//     timer observation is a few adds and compares (timers read no
//     clock: callers hand them durations, e.g. the DES's simulated busy
//     time);
//   * exactly zero cost when disabled: building with
//     -DNASHLB_OBS_ENABLED=0 swaps every type for an empty no-op twin
//     (`detail::Null*`), and `obs::kEnabled` is a constexpr false that
//     lets call sites guard expensive derived statistics with an
//     `if (obs::kEnabled && ...)` the compiler deletes outright;
//   * both twins are always *compiled* (they live in this header), so the
//     unit tests can assert the no-op contract regardless of how the
//     library itself was built.
//
// See docs/OBSERVABILITY.md for the exported schemas and a worked example.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.hpp"     // NASHLB_OBS_ENABLED default + kEnabled
#include "obs/histogram.hpp"  // the Registry stores histograms too

namespace nashlb::obs {

namespace detail {

/// Monotonic event counter.
class EnabledCounter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  /// Folds another counter's total into this one (shard reduction).
  void merge(const EnabledCounter& other) noexcept { value_ += other.value_; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Accumulates durations (seconds) plus an observation count and the
/// observed extremes.
class EnabledTimer {
 public:
  /// Folds a pre-aggregated batch: `total` seconds over `n` observations.
  /// The batch carries no per-observation extremes, so min/max are
  /// untouched; use the 4-argument overload when the producer knows them.
  void add_batch(double total, std::uint64_t n) noexcept {
    total_seconds_ += total;
    count_ += n;
  }
  /// Batch fold with the batch's own observed extremes.
  void add_batch(double total, std::uint64_t n, double batch_min,
                 double batch_max) noexcept {
    add_batch(total, n);
    if (n != 0) note_extreme(batch_min, batch_max);
  }
  /// Folds another timer into this one (shard reduction): totals and
  /// counts sum; extremes fold by min/max, but only when `other`
  /// actually observed extremes (a shard fed exclusively by extreme-less
  /// add_batch calls contributes none, exactly as if its batches had
  /// been folded here directly).
  void merge(const EnabledTimer& other) noexcept {
    total_seconds_ += other.total_seconds_;
    count_ += other.count_;
    if (other.min_ <= other.max_) note_extreme(other.min_, other.max_);
  }
  [[nodiscard]] double total_seconds() const noexcept { return total_seconds_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Smallest / largest single observation seen (0 while none carried
  /// extremes — batches folded without them don't count).
  [[nodiscard]] double min_seconds() const noexcept {
    return min_ <= max_ ? min_ : 0.0;
  }
  [[nodiscard]] double max_seconds() const noexcept {
    return min_ <= max_ ? max_ : 0.0;
  }
  void reset() noexcept {
    total_seconds_ = 0.0;
    count_ = 0;
    min_ = 1.0;
    max_ = 0.0;
  }

 private:
  void note_extreme(double lo, double hi) noexcept {
    if (min_ > max_) {  // no extremes recorded yet
      min_ = lo;
      max_ = hi;
    } else {
      if (lo < min_) min_ = lo;
      if (hi > max_) max_ = hi;
    }
  }

  double total_seconds_ = 0.0;
  std::uint64_t count_ = 0;
  // min_ > max_ encodes "no extremes yet" without a separate flag.
  double min_ = 1.0;
  double max_ = 0.0;
};

/// No-op twins: identical interfaces, empty bodies, empty layout. The
/// aliases below select these when NASHLB_OBS_ENABLED is 0.
class NullCounter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  void merge(const NullCounter&) noexcept {}
  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class NullTimer {
 public:
  void add_batch(double, std::uint64_t) noexcept {}
  void add_batch(double, std::uint64_t, double, double) noexcept {}
  void merge(const NullTimer&) noexcept {}
  [[nodiscard]] constexpr double total_seconds() const noexcept { return 0.0; }
  [[nodiscard]] constexpr std::uint64_t count() const noexcept { return 0; }
  [[nodiscard]] constexpr double min_seconds() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double max_seconds() const noexcept { return 0.0; }
  void reset() noexcept {}
};

}  // namespace detail

/// Point-in-time view of one named metric (see Registry::snapshot).
/// Fields a kind doesn't define are 0: counters carry only `count`;
/// timers add totals and extremes; histograms add the quantiles.
struct MetricSnapshot {
  std::string name;
  std::string kind;       ///< "counter", "timer" or "histogram"
  std::uint64_t count;    ///< counter value, or observation count
  double total_seconds;   ///< accumulated seconds (histogram: sum)
  double min_seconds;     ///< smallest observation (0 if unknown)
  double max_seconds;     ///< largest observation (0 if unknown)
  double p50;             ///< histogram quantiles (0 for other kinds)
  double p90;
  double p99;
};

/// Column names of the Registry's CSV export, in order. Declared
/// programmatically (like `convergence_trace_columns()`) so consumers
/// never hardcode the export layout; tools/nashlb_analyzer.py
/// (`trace-arity` rule) checks every exported row against this arity.
[[nodiscard]] std::vector<std::string> registry_export_columns();

namespace detail {

/// Named metric store. References returned by counter()/timer() stay
/// valid for the registry's lifetime (node-based map). Not thread-safe;
/// the sharding pattern (docs/OBSERVABILITY.md, "Sharded registries") is
/// one registry per worker, merged in worker/index order after the join
/// — never a shared registry under concurrent mutation.
class EnabledRegistry {
 public:
  /// Returns (creating on first use) the counter named `name`.
  EnabledCounter& counter(const std::string& name) { return counters_[name]; }
  /// Returns (creating on first use) the timer named `name`.
  EnabledTimer& timer(const std::string& name) { return timers_[name]; }
  /// Returns (creating on first use) the histogram named `name`.
  EnabledHistogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  /// Folds another registry (a per-thread shard) into this one, metric
  /// by metric: counters sum, timers fold totals/counts and min/max
  /// extremes, histograms merge cell-by-cell. Metrics only named in
  /// `other` are created here. Merging shards in a fixed order yields a
  /// result independent of how work was scheduled across threads (the
  /// only float folds are sums of each shard's subtotals in that order).
  void merge(const EnabledRegistry& other);

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + timers_.size() + histograms_.size();
  }

  /// All metrics — counters, then timers, then histograms, each group
  /// name-sorted.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Writes the snapshot as CSV under `registry_export_columns()`.
  void write_csv(const std::string& path) const;
  /// Writes the snapshot as JSON-lines, one metric object per line.
  void write_jsonl(const std::string& path) const;

  void clear() noexcept {
    counters_.clear();
    timers_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, EnabledCounter> counters_;
  std::map<std::string, EnabledTimer> timers_;
  std::map<std::string, EnabledHistogram> histograms_;
};

class NullRegistry {
 public:
  NullCounter& counter(const std::string&) noexcept { return counter_; }
  NullTimer& timer(const std::string&) noexcept { return timer_; }
  NullHistogram& histogram(const std::string&) noexcept { return histogram_; }
  void merge(const NullRegistry&) noexcept {}
  [[nodiscard]] constexpr std::size_t size() const noexcept { return 0; }
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const { return {}; }
  void write_csv(const std::string&) const noexcept {}
  void write_jsonl(const std::string&) const noexcept {}
  void clear() noexcept {}

 private:
  NullCounter counter_;
  NullTimer timer_;
  NullHistogram histogram_;
};

}  // namespace detail

#if NASHLB_OBS_ENABLED
using Counter = detail::EnabledCounter;
using Timer = detail::EnabledTimer;
using Registry = detail::EnabledRegistry;
#else
using Counter = detail::NullCounter;
using Timer = detail::NullTimer;
using Registry = detail::NullRegistry;
#endif

}  // namespace nashlb::obs
