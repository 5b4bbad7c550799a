#include "support/batch_means.hpp"

#include <stdexcept>

namespace nashlb::test_support {

using stats::t_interval;

BatchMeans::BatchMeans(std::uint64_t batch_size) : batch_size_(batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("BatchMeans: batch_size must be >= 1");
  }
}

void BatchMeans::add(double x) {
  ++count_;
  current_sum_ += x;
  if (++current_n_ == batch_size_) {
    means_.push_back(current_sum_ / static_cast<double>(batch_size_));
    current_sum_ = 0.0;
    current_n_ = 0;
  }
}

double BatchMeans::mean() const noexcept {
  if (means_.empty()) return 0.0;
  double total = 0.0;
  for (double m : means_) total += m;
  return total / static_cast<double>(means_.size());
}

ConfidenceInterval BatchMeans::interval(double confidence) const {
  return t_interval(means_, confidence);
}

double BatchMeans::lag1_autocorrelation() const noexcept {
  const std::size_t k = means_.size();
  if (k < 3) return 0.0;
  const double grand = mean();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double d = means_[i] - grand;
    den += d * d;
    if (i + 1 < k) {
      num += d * (means_[i + 1] - grand);
    }
  }
  if (den == 0.0) return 0.0;
  return num / den;
}

}  // namespace nashlb::test_support
