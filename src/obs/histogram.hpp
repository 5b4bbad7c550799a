// Log-bucketed latency histogram with a fixed, shared bucket layout.
//
// The paper's claims are about *response time* distributions — the
// per-computer M/M/1 sojourn F_i(s) is an exponential random variable,
// not just its mean 1/(mu_i - lambda_i) — so the obs layer needs an
// instrument that captures where the mass of a latency distribution
// sits, not only its first moment. Design constraints:
//
//   * fixed layout: every Histogram shares one compile-time bucket
//     grid (powers of two subdivided kBucketsPerOctave times, covering
//     ~1 ns to ~1 hour), so any two histograms merge cell-by-cell with
//     no rebinning and the memory footprint is a constant few KiB;
//   * log buckets: each bucket's bounds differ by the constant factor
//     2^(1/kBucketsPerOctave) (~4.4% relative width), so quantile
//     estimates carry the same *relative* error at 50 µs and 50 s;
//   * bounds are declared programmatically (bucket_count(),
//     bucket_lower_bound(), bucket_upper_bound()) — consumers must
//     never hardcode edges; tools/nashlb_analyzer.py enforces this
//     (`histogram-bounds` rule);
//   * like every obs type, a -DNASHLB_OBS=OFF build swaps in an empty
//     no-op twin.
//
// See docs/OBSERVABILITY.md ("Histograms") for the export schema and a
// worked example.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/config.hpp"  // NASHLB_OBS_ENABLED default + kEnabled

namespace nashlb::obs {

/// The shared bucket grid: bucket k covers
///   [2^(kMinExponent + k/kBucketsPerOctave),
///    2^(kMinExponent + (k+1)/kBucketsPerOctave)).
/// Values below the grid land in bucket 0, values above in the last
/// bucket; exact min/max/sum are tracked separately so the clamping
/// never loses the extremes.
struct HistogramLayout {
  static constexpr int kMinExponent = -30;       ///< 2^-30 s ~ 0.93 ns
  static constexpr int kMaxExponent = 12;        ///< 2^12 s ~ 68 min
  static constexpr int kBucketsPerOctave = 16;   ///< 2^(1/16) ~ +4.4%/bucket

  [[nodiscard]] static constexpr std::size_t bucket_count() noexcept {
    return static_cast<std::size_t>(kMaxExponent - kMinExponent) *
           static_cast<std::size_t>(kBucketsPerOctave);
  }
  /// Inclusive lower bound of bucket `k` in seconds.
  [[nodiscard]] static double bucket_lower_bound(std::size_t k) noexcept;
  /// Exclusive upper bound of bucket `k` in seconds.
  [[nodiscard]] static double bucket_upper_bound(std::size_t k) noexcept;
  /// Index of the bucket containing `seconds` (clamped to the grid).
  [[nodiscard]] static std::size_t bucket_index(double seconds) noexcept;
};

namespace detail {

/// The enabled histogram. Copyable (it is plain counts), mergeable with
/// any other histogram (same fixed layout by construction).
class EnabledHistogram {
 public:
  using Layout = HistogramLayout;

  EnabledHistogram() = default;

  /// Folds one latency observation (seconds). Non-finite or negative
  /// values are counted but routed to the bottom bucket.
  void record(double seconds) noexcept;

  /// Cell-by-cell merge; min/max/sum/count fold exactly.
  void merge(const EnabledHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Exact observed extremes (0 when empty).
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Quantile estimate for q in [0, 1]: linear interpolation inside
  /// the covering bucket, clamped to the exact [min, max]. Relative
  /// error is bounded by the bucket width (~4.4%). Returns 0 when
  /// empty; q outside [0, 1] is clamped.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

  /// Count in bucket `k` (0 for an empty histogram or out-of-range k).
  [[nodiscard]] std::uint64_t bucket(std::size_t k) const noexcept;

  void reset() noexcept;

 private:
  // Allocated on first record() so an unused histogram costs a pointer.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// No-op twin: identical interface, empty layout, records nothing.
class NullHistogram {
 public:
  using Layout = HistogramLayout;
  void record(double) noexcept {}
  void merge(const NullHistogram&) noexcept {}
  [[nodiscard]] constexpr std::uint64_t count() const noexcept { return 0; }
  [[nodiscard]] constexpr double sum() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double min() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double max() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double mean() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double quantile(double) const noexcept {
    return 0.0;
  }
  [[nodiscard]] constexpr double p50() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double p90() const noexcept { return 0.0; }
  [[nodiscard]] constexpr double p99() const noexcept { return 0.0; }
  [[nodiscard]] constexpr std::uint64_t bucket(std::size_t) const noexcept {
    return 0;
  }
  void reset() noexcept {}
};

}  // namespace detail

#if NASHLB_OBS_ENABLED
using Histogram = detail::EnabledHistogram;
#else
using Histogram = detail::NullHistogram;
#endif

}  // namespace nashlb::obs
