// Batch-means output analysis: confidence intervals from a single long
// simulation run.
//
// The paper uses independent replications (§4.1); the classic alternative
// for steady-state simulation is the method of batch means — split one
// long post-warm-up observation stream into k contiguous batches whose
// means are approximately i.i.d. normal, then apply the Student-t
// interval. The library runs replications; the integration tests use
// this accumulator as the independent cross-check that the two methods
// agree on the M/M/1 farm.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/confidence.hpp"

namespace nashlb::test_support {

using stats::ConfidenceInterval;

/// Online batch-means accumulator with a fixed batch size.
///
/// Observations stream in via add(); every `batch_size` consecutive
/// observations form one batch whose mean is recorded. The trailing
/// partial batch is excluded from the interval (standard practice — a
/// short batch would be over-weighted).
class BatchMeans {
 public:
  /// `batch_size >= 1`; throws std::invalid_argument otherwise.
  explicit BatchMeans(std::uint64_t batch_size);

  /// Folds one observation into the current batch.
  void add(double x);

  [[nodiscard]] std::uint64_t batch_size() const noexcept {
    return batch_size_;
  }
  /// Number of completed batches so far.
  [[nodiscard]] std::size_t batch_count() const noexcept {
    return means_.size();
  }
  /// Total observations consumed (including the partial batch).
  [[nodiscard]] std::uint64_t observations() const noexcept { return count_; }

  /// Means of the completed batches, in order.
  [[nodiscard]] const std::vector<double>& batch_means() const noexcept {
    return means_;
  }

  /// Grand mean over completed batches (0 when none).
  [[nodiscard]] double mean() const noexcept;

  /// Student-t interval over the completed batch means. Requires at
  /// least two completed batches; throws std::invalid_argument otherwise.
  [[nodiscard]] ConfidenceInterval interval(double confidence = 0.95) const;

  /// Lag-1 autocorrelation of the batch means — the standard diagnostic
  /// for "are my batches long enough?" (should be near 0). Returns 0
  /// when fewer than 3 batches exist.
  [[nodiscard]] double lag1_autocorrelation() const noexcept;

 private:
  std::uint64_t batch_size_;
  std::uint64_t count_ = 0;
  double current_sum_ = 0.0;
  std::uint64_t current_n_ = 0;
  std::vector<double> means_;
};

}  // namespace nashlb::test_support
