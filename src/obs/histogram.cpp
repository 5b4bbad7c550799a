#include "obs/histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace nashlb::obs {

double HistogramLayout::bucket_lower_bound(std::size_t k) noexcept {
  if (k >= bucket_count()) k = bucket_count() - 1;
  return std::exp2(static_cast<double>(kMinExponent) +
                   static_cast<double>(k) /
                       static_cast<double>(kBucketsPerOctave));
}

double HistogramLayout::bucket_upper_bound(std::size_t k) noexcept {
  if (k >= bucket_count()) k = bucket_count() - 1;
  return std::exp2(static_cast<double>(kMinExponent) +
                   static_cast<double>(k + 1) /
                       static_cast<double>(kBucketsPerOctave));
}

std::size_t HistogramLayout::log2_index(double seconds) noexcept {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return 0;
  const double pos = (std::log2(seconds) - static_cast<double>(kMinExponent)) *
                     static_cast<double>(kBucketsPerOctave);
  if (pos <= 0.0) return 0;
  const auto k = static_cast<std::size_t>(pos);
  return k >= bucket_count() ? bucket_count() - 1 : k;
}

// The log2 formula above, read from a table of its bucket edges: lower[k]
// is the smallest double log2_index puts in bucket k or above, found by
// bisection over the bit patterns of the positive doubles (which order
// like the doubles), so a lookup returns what log2_index returns.
// lower[bucket_count()] = +inf stops the steps at the top. Every edge
// is tabled: the edges of one octave are not those of the next scaled by
// 2, because log2's rounding near an edge differs from octave to octave.
std::size_t HistogramLayout::bucket_index(double seconds) noexcept {
  static const std::array<double, bucket_count() + 1> lower = [] {
    std::array<double, bucket_count() + 1> edges{};
    for (std::size_t k = 1; k < bucket_count(); ++k) {
      auto lo = std::bit_cast<std::uint64_t>(std::exp2(kMinExponent - 1));
      auto hi = std::bit_cast<std::uint64_t>(std::exp2(kMaxExponent + 1));
      while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (log2_index(std::bit_cast<double>(mid)) >= k) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      edges[k] = std::bit_cast<double>(hi);
    }
    edges[bucket_count()] = std::numeric_limits<double>::infinity();
    return edges;
  }();
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return 0;
  // seconds = 2^e * f with f in [1, 2). Below and above the grid the
  // formula clamps. Inside it, the top four bits of f give
  // floor(16 (f - 1)), which is never above the bucket (log2 f >= f - 1
  // on [1, 2]) and at most 2 below it (16 (log2 f - (f - 1)) < 1.4), so
  // two steps up the edges, each an add of a comparison, not a branch,
  // land on it.
  static_assert(kBucketsPerOctave == 16);
  const auto bits = std::bit_cast<std::uint64_t>(seconds);
  const int e = static_cast<int>(bits >> 52) - 1023;
  if (e < kMinExponent) return 0;
  if (e >= kMaxExponent) return bucket_count() - 1;
  std::size_t k = static_cast<std::size_t>(e - kMinExponent) * 16 +
                  static_cast<std::size_t>((bits >> 48) & 15);
  k += static_cast<std::size_t>(seconds >= lower[k + 1]);
  k += static_cast<std::size_t>(seconds >= lower[k + 1]);
  return k;
}

namespace detail {

void EnabledHistogram::record(double seconds) noexcept {
  if (counts_.empty()) counts_.assign(Layout::bucket_count(), 0);
  ++counts_[Layout::bucket_index(seconds)];
  if (count_ == 0) {
    min_ = seconds;
    max_ = seconds;
  } else {
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
  }
  ++count_;
}

void EnabledHistogram::merge(const EnabledHistogram& other) noexcept {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(Layout::bucket_count(), 0);
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    counts_[k] += other.counts_[k];
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
}

std::uint64_t EnabledHistogram::bucket(std::size_t k) const noexcept {
  return k < counts_.size() ? counts_[k] : 0;
}

double EnabledHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;  // the degenerate quantiles are exact
  if (q >= 1.0) return max_;
  // Target rank in (0, count]; bucket b is the one whose cumulative
  // count first reaches it.
  const double target =
      std::max(1.0, q * static_cast<double>(count_));
  std::uint64_t cum = 0;
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    if (counts_[k] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts_[k];
    if (static_cast<double>(cum) >= target) {
      const double lo = Layout::bucket_lower_bound(k);
      const double hi = Layout::bucket_upper_bound(k);
      const double frac =
          (target - before) / static_cast<double>(counts_[k]);
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
  }
  return max_;  // unreachable for a consistent histogram
}

}  // namespace detail
}  // namespace nashlb::obs
