#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

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

std::size_t HistogramLayout::bucket_index(double seconds) noexcept {
  if (!(seconds > 0.0) || !std::isfinite(seconds)) return 0;
  const double pos = (std::log2(seconds) - static_cast<double>(kMinExponent)) *
                     static_cast<double>(kBucketsPerOctave);
  if (pos <= 0.0) return 0;
  const auto k = static_cast<std::size_t>(pos);
  return k >= bucket_count() ? bucket_count() - 1 : k;
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
