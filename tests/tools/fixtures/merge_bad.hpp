// Golden fixture: obs merges that can throw past the capture point.
// Analyzed as if at src/obs/merge_bad.hpp.
#pragma once

struct merge_error {};

struct EnabledCounter {
  // Not declared noexcept.
  void merge(const EnabledCounter& other) { value_ += other.value_; }
  long value_ = 0;
};

struct EnabledTimer {
  // Throwing merge: one finding for the throw, one for missing noexcept.
  void merge(const EnabledTimer& other) {
    if (other.total_ < 0.0) throw merge_error{};  // line 16
    total_ += other.total_;
  }
  double total_ = 0.0;
};

struct EnabledRegistry {
  // No type is exempt by name: every obs merge must be noexcept.
  void merge(const EnabledRegistry& other) { (void)other; }
};
